package dist

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// This file keeps the conditioning and construction loops as they were
// before the fused kernel: the pattern-based likelihoods, the separate
// normalize, marginal and entropy passes, and math.Log2. The differential
// test below requires the kernel to reproduce them bit for bit.

// refEntropy is the Kahan-compensated -Σ p·log2 p over p, with math.Log2.
func refEntropy(p []float64) float64 {
	var sum, comp float64
	for _, pi := range p {
		var term float64
		if pi > 0 {
			term = -(pi * math.Log2(pi))
		}
		y := term - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	if sum < 0 {
		return 0
	}
	return sum
}

// refSum is the Kahan sum of xs.
func refSum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

func refFinish(n int, ws []World, ps []float64) (*Joint, error) {
	total := refSum(ps)
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return nil, ErrZeroMass
	}
	out := 0
	for i, p := range ps {
		if p == 0 {
			continue
		}
		ws[out] = ws[i]
		ps[out] = p / total
		out++
	}
	ws = ws[:out]
	ps = ps[:out]
	if out == 0 {
		return nil, ErrZeroMass
	}
	j := &Joint{n: n, worlds: ws, probs: ps}
	j.stats.Do(func() {
		j.marginals = make([]float64, n)
		for i, w := range ws {
			p := ps[i]
			for m := uint64(w); m != 0; m &= m - 1 {
				j.marginals[bits.TrailingZeros64(m)] += p
			}
		}
		j.entropy = refEntropy(ps)
	})
	return j, nil
}

func (j *Joint) refFinishConditioned(ps []float64) (*Joint, error) {
	zero := false
	for _, p := range ps {
		if p == 0 {
			zero = true
			break
		}
	}
	if zero {
		ws := make([]World, len(j.worlds))
		copy(ws, j.worlds)
		return refFinish(j.n, ws, append([]float64(nil), ps...))
	}
	total := refSum(ps)
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return nil, ErrZeroMass
	}
	m := len(ps)
	buf := make([]float64, m+j.n)
	probs := buf[:m:m]
	marginals := buf[m:]
	post := &Joint{n: j.n, worlds: j.worlds, probs: probs, marginals: marginals}
	post.stats.Do(func() {
		for i, p := range ps {
			p /= total
			probs[i] = p
			for mm := uint64(j.worlds[i]); mm != 0; mm &= mm - 1 {
				marginals[bits.TrailingZeros64(mm)] += p
			}
		}
		post.entropy = refEntropy(probs)
	})
	return post, nil
}

// answerPattern packs an answer vector into the bitmask convention of
// World.Pattern: bit i set exactly when answers[i] is true.
func answerPattern(answers []bool) uint64 {
	var p uint64
	for i, a := range answers {
		if a {
			p |= 1 << uint(i)
		}
	}
	return p
}

func (j *Joint) refAnswerSetProb(tasks []int, answers []bool, pc float64) float64 {
	weights := FillChannelWeights(make([]float64, len(tasks)+1), pc)
	ans := answerPattern(answers)
	var sum, comp float64
	for i, w := range j.worlds {
		d := bits.OnesCount64(w.Pattern(tasks) ^ ans)
		term := j.probs[i] * weights[d]
		y := term - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

func (j *Joint) refCondition(tasks []int, answers []bool, pc float64) (*Joint, error) {
	k := len(tasks)
	weights := FillChannelWeights(make([]float64, k+1), pc)
	ans := answerPattern(answers)
	ps := make([]float64, len(j.worlds))
	for i, w := range j.worlds {
		d := bits.OnesCount64(w.Pattern(tasks) ^ ans)
		ps[i] = j.probs[i] * weights[d]
	}
	post, err := j.refFinishConditioned(ps)
	if err != nil {
		return nil, ErrImpossibleAnswers
	}
	return post, nil
}

func (j *Joint) refConditionWeighted(tasks []int, answers []bool, sens, spec []float64) (*Joint, error) {
	k := len(tasks)
	if c, uniform := uniformAccuracy(sens, spec); uniform {
		return j.refCondition(tasks, answers, c)
	}
	ans := answerPattern(answers)
	ps := make([]float64, len(j.worlds))
	for i, w := range j.worlds {
		pat := w.Pattern(tasks)
		like := 1.0
		for b := 0; b < k; b++ {
			bit := uint64(1) << uint(b)
			truth := pat&bit != 0
			agree := (ans&bit != 0) == truth
			switch {
			case truth && agree:
				like *= sens[b]
			case truth:
				like *= 1 - sens[b]
			case agree:
				like *= spec[b]
			default:
				like *= 1 - spec[b]
			}
		}
		ps[i] = j.probs[i] * like
	}
	post, err := j.refFinishConditioned(ps)
	if err != nil {
		return nil, ErrImpossibleAnswers
	}
	return post, nil
}

func refDense(n int, probs []float64) (*Joint, error) {
	ws := make([]World, len(probs))
	ps := make([]float64, len(probs))
	for w, p := range probs {
		ws[w] = World(w)
		ps[w] = p
	}
	return refFinish(n, ws, ps)
}

func refIndependent(marginals []float64) (*Joint, error) {
	n := len(marginals)
	probs := make([]float64, 1<<uint(n))
	probs[0] = 1
	size := 1
	for _, m := range marginals {
		for w := 0; w < size; w++ {
			p := probs[w]
			probs[w] = p * (1 - m)
			probs[w|size] = p * m
		}
		size <<= 1
	}
	return refDense(n, probs)
}

// requireSameBits fails t unless got and want are the same distribution
// bit for bit: support, probabilities, marginals and entropy.
func requireSameBits(t *testing.T, what string, got, want *Joint, gotErr, wantErr error) {
	t.Helper()
	if !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if got.n != want.n || len(got.worlds) != len(want.worlds) || len(got.probs) != len(want.probs) ||
		len(got.marginals) != len(want.marginals) {
		t.Fatalf("%s: shape n=%d |worlds|=%d |probs|=%d |marginals|=%d, reference %d/%d/%d/%d", what,
			got.n, len(got.worlds), len(got.probs), len(got.marginals),
			want.n, len(want.worlds), len(want.probs), len(want.marginals))
	}
	for i := range want.worlds {
		if got.worlds[i] != want.worlds[i] {
			t.Fatalf("%s: world %d = %#x, reference %#x", what, i, uint64(got.worlds[i]), uint64(want.worlds[i]))
		}
		if math.Float64bits(got.probs[i]) != math.Float64bits(want.probs[i]) {
			t.Fatalf("%s: prob %d = %v, reference %v", what, i, got.probs[i], want.probs[i])
		}
	}
	for i, m := range want.Marginals() {
		if math.Float64bits(got.Marginals()[i]) != math.Float64bits(m) {
			t.Fatalf("%s: marginal %d = %v, reference %v", what, i, got.Marginals()[i], m)
		}
	}
	if math.Float64bits(got.Entropy()) != math.Float64bits(want.Entropy()) {
		t.Fatalf("%s: entropy %v, reference %v", what, got.Entropy(), want.Entropy())
	}
}

// refPrior is one prior under test together with the reference's copy.
type refPrior struct {
	name      string
	got, want *Joint
}

// refPriors builds a sparse, a product (Independent, with an occasional 0
// or 1 marginal so the support is not the whole cube) and a dense prior
// over n facts, each through the kernel and through the reference.
func refPriors(t *testing.T, rng *rand.Rand, n int) []refPrior {
	t.Helper()
	var out []refPrior
	add := func(name string, got *Joint, gotErr error, want *Joint, wantErr error) {
		requireSameBits(t, name, got, want, gotErr, wantErr)
		out = append(out, refPrior{name, got, want})
	}

	// A sorted, duplicate-free support, so New's sort and merge hand
	// finish the same slices the reference gets.
	var worlds []World
	var probs []float64
	density := rng.Float64()
	for w := 0; w < 1<<uint(n); w++ {
		if rng.Float64() < density || (w == 1<<uint(n)-1 && worlds == nil) {
			worlds = append(worlds, World(w))
			probs = append(probs, rng.Float64()+1e-9)
		}
	}
	sparse, err := New(n, worlds, probs)
	refSparse, refErr := refFinish(n, append([]World(nil), worlds...), append([]float64(nil), probs...))
	add("sparse", sparse, err, refSparse, refErr)

	marginals := make([]float64, n)
	for i := range marginals {
		switch rng.Intn(12) {
		case 0:
			marginals[i] = 0
		case 1:
			marginals[i] = 1
		default:
			marginals[i] = rng.Float64()
		}
	}
	ind, indErr := Independent(marginals)
	refInd, refIndErr := refIndependent(marginals)
	add("independent", ind, indErr, refInd, refIndErr)

	dense := make([]float64, 1<<uint(n))
	for i := range dense {
		dense[i] = rng.Float64()
		if rng.Intn(3) == 0 {
			dense[i] = 0
		}
	}
	dense[rng.Intn(len(dense))] = 0.5
	d, dErr := Dense(n, dense)
	refD, refDErr := refDense(n, dense)
	add("dense", d, dErr, refD, refDErr)
	return out
}

// TestConditionKernelMatchesReference: the fused conditioning kernel, the
// constructors and AnswerSetProb reproduce the pre-fusion loops bit for
// bit — on sparse,
// product and dense priors over 1 to 14 facts, for every k up to n, with
// interior, degenerate (pc ∈ {0, 1}) and perfect-judgment channels (the
// support-compacting path), uniform weighted channels (the delegation to
// Condition) and answer sets the prior rules out.
func TestConditionKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var compacted, impossible, delegated int
	for n := 1; n <= 14; n++ {
		for k := 1; k <= min(n, 20); k++ {
			for _, prior := range refPriors(t, rng, n) {
				tasks := rng.Perm(n)[:k]
				answers := make([]bool, k)
				for i := range answers {
					answers[i] = rng.Intn(2) == 0
				}
				for _, pc := range []float64{rng.Float64(), 0.8, 0.5, 1, 0} {
					got, gotErr := prior.got.Condition(tasks, answers, pc)
					want, wantErr := prior.want.refCondition(tasks, answers, pc)
					what := prior.name + " Condition"
					requireSameBits(t, what, got, want, gotErr, wantErr)
					pe, err := prior.got.AnswerSetProb(tasks, answers, pc)
					if refPE := prior.want.refAnswerSetProb(tasks, answers, pc); err != nil ||
						math.Float64bits(pe) != math.Float64bits(refPE) {
						t.Fatalf("%s AnswerSetProb = %v (%v), reference %v", prior.name, pe, err, refPE)
					}
					if wantErr != nil {
						impossible++
					} else if len(want.worlds) < len(prior.want.worlds) {
						compacted++
					}
				}

				sens, spec := make([]float64, k), make([]float64, k)
				for i := range sens {
					sens[i], spec[i] = 0.5+0.5*rng.Float64(), 0.5+0.5*rng.Float64()
				}
				channels := [][2][]float64{{sens, spec}}
				// One judgment perfectly sensitive and specific.
				sure := [2][]float64{append([]float64(nil), sens...), append([]float64(nil), spec...)}
				b := rng.Intn(k)
				sure[0][b], sure[1][b] = 1, 1
				channels = append(channels, sure)
				// Uniform: every judgment one symmetric accuracy.
				c := 0.55 + 0.4*rng.Float64()
				uni := [2][]float64{make([]float64, k), make([]float64, k)}
				for i := range uni[0] {
					uni[0][i], uni[1][i] = c, c
				}
				channels = append(channels, uni)
				for ci, ch := range channels {
					got, gotErr := prior.got.ConditionWeighted(tasks, answers, ch[0], ch[1])
					want, wantErr := prior.want.refConditionWeighted(tasks, answers, ch[0], ch[1])
					what := prior.name + " ConditionWeighted"
					requireSameBits(t, what, got, want, gotErr, wantErr)
					switch {
					case wantErr != nil:
						impossible++
					case len(want.worlds) < len(prior.want.worlds):
						compacted++
					case ci == 2:
						delegated++
					}
				}
			}
		}
	}
	if compacted == 0 || impossible == 0 || delegated == 0 {
		t.Errorf("coverage: %d compacting, %d impossible, %d delegated conditionings; want each > 0",
			compacted, impossible, delegated)
	}
}
