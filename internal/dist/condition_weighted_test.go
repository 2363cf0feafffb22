package dist

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// bruteConditionWeighted recomputes the weighted posterior with naive
// per-world, per-judgment arithmetic — the oracle for ConditionWeighted's
// bit-packed likelihood loop.
func bruteConditionWeighted(j *Joint, tasks []int, answers []bool, sens, spec []float64) ([]World, []float64) {
	ws := make([]World, 0, len(j.Worlds()))
	ps := make([]float64, 0, len(j.Worlds()))
	var total float64
	for i, w := range j.Worlds() {
		p := j.Probs()[i]
		for t, f := range tasks {
			truth := w.Has(f)
			agree := answers[t] == truth
			switch {
			case truth && agree:
				p *= sens[t]
			case truth:
				p *= 1 - sens[t]
			case agree:
				p *= spec[t]
			default:
				p *= 1 - spec[t]
			}
		}
		if p > 0 {
			ws = append(ws, w)
			ps = append(ps, p)
		}
		total += p
	}
	for i := range ps {
		ps[i] /= total
	}
	return ws, ps
}

// TestConditionWeightedUniformBitIdentical is the differential oracle the
// ISSUE requires: when every judgment carries the same symmetric accuracy
// c, the weighted update must be bit-for-bit the fixed-pc update — not
// merely close, identical — because recovery replays mixed histories
// through whichever path matches each op.
func TestConditionWeightedUniformBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(6)
		j := randomJoint(t, rng, n, 1+rng.Intn(12))
		k := 1 + rng.Intn(4)
		if k > n {
			k = n
		}
		tasks := rng.Perm(n)[:k]
		answers := make([]bool, k)
		for i := range answers {
			answers[i] = rng.Intn(2) == 0
		}
		c := 0.05 + 0.9*rng.Float64()
		sens := make([]float64, k)
		spec := make([]float64, k)
		for i := range sens {
			sens[i] = c
			spec[i] = c
		}
		want, errW := j.Condition(tasks, answers, c)
		got, errG := j.ConditionWeighted(tasks, answers, sens, spec)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("trial %d: Condition err=%v, ConditionWeighted err=%v", trial, errW, errG)
		}
		if errW != nil {
			continue
		}
		wantW, gotW := want.Worlds(), got.Worlds()
		wantP, gotP := want.Probs(), got.Probs()
		if len(wantW) != len(gotW) {
			t.Fatalf("trial %d: support %d vs %d", trial, len(wantW), len(gotW))
		}
		for i := range wantW {
			if wantW[i] != gotW[i] || wantP[i] != gotP[i] {
				t.Fatalf("trial %d world %d: fixed (%v, %v) weighted (%v, %v)",
					trial, i, wantW[i], wantP[i], gotW[i], gotP[i])
			}
		}
	}
}

// TestConditionWeightedMatchesBruteForce checks genuinely heterogeneous
// channels against the naive per-world recomputation.
func TestConditionWeightedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(6)
		j := randomJoint(t, rng, n, 1+rng.Intn(12))
		k := 1 + rng.Intn(4)
		if k > n {
			k = n
		}
		tasks := rng.Perm(n)[:k]
		answers := make([]bool, k)
		sens := make([]float64, k)
		spec := make([]float64, k)
		for i := range answers {
			answers[i] = rng.Intn(2) == 0
			sens[i] = 0.05 + 0.9*rng.Float64()
			spec[i] = 0.05 + 0.9*rng.Float64()
		}
		got, err := j.ConditionWeighted(tasks, answers, sens, spec)
		wantW, wantP := bruteConditionWeighted(j, tasks, answers, sens, spec)
		if err != nil {
			if errors.Is(err, ErrImpossibleAnswers) && len(wantW) == 0 {
				continue
			}
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got.Worlds()) != len(wantW) {
			t.Fatalf("trial %d: support %d, brute force %d", trial, len(got.Worlds()), len(wantW))
		}
		for i, w := range got.Worlds() {
			if w != wantW[i] {
				t.Fatalf("trial %d: world %d is %v, brute force %v", trial, i, w, wantW[i])
			}
			if math.Abs(got.Probs()[i]-wantP[i]) > 1e-12 {
				t.Fatalf("trial %d world %v: prob %v, brute force %v", trial, w, got.Probs()[i], wantP[i])
			}
		}
	}
}

// TestConditionWeightedAsymmetry: a judgment with perfect sensitivity but
// useless specificity shifts mass exactly as a one-sided likelihood should
// — false answers rule out true worlds entirely, true answers only
// reweight.
func TestConditionWeightedPerfectJudgment(t *testing.T) {
	j, err := New(1, []World{0, 1}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Perfect worker says false: P(false|true worlds) = 0, so only the
	// empty world survives.
	post, err := j.ConditionWeighted([]int{0}, []bool{false}, []float64{1}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(post.Worlds()) != 1 || post.Worlds()[0] != 0 || post.Probs()[0] != 1 {
		t.Fatalf("posterior = %v %v, want the empty world with certainty", post.Worlds(), post.Probs())
	}
	// A perfect judgment that contradicts every supported world
	// annihilates the posterior.
	if _, err := post.ConditionWeighted([]int{0}, []bool{true},
		[]float64{1}, []float64{1}); !errors.Is(err, ErrImpossibleAnswers) {
		t.Fatalf("contradicting perfect judgment: err = %v, want ErrImpossibleAnswers", err)
	}
}

func TestConditionWeightedValidation(t *testing.T) {
	j, err := New(2, []World{0, 1, 2}, []float64{0.2, 0.3, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		tasks      []int
		answers    []bool
		sens, spec []float64
	}{
		{"short sens", []int{0, 1}, []bool{true, false}, []float64{0.8}, []float64{0.8, 0.8}},
		{"short spec", []int{0, 1}, []bool{true, false}, []float64{0.8, 0.8}, []float64{0.8}},
		{"sens above one", []int{0}, []bool{true}, []float64{1.1}, []float64{0.8}},
		{"spec below zero", []int{0}, []bool{true}, []float64{0.8}, []float64{-0.1}},
		{"NaN sens", []int{0}, []bool{true}, []float64{math.NaN()}, []float64{0.8}},
		{"bad fact", []int{7}, []bool{true}, []float64{0.8}, []float64{0.8}},
		{"answers mismatch", []int{0, 1}, []bool{true}, []float64{0.8, 0.8}, []float64{0.8, 0.8}},
	}
	for _, tc := range cases {
		if _, err := j.ConditionWeighted(tc.tasks, tc.answers, tc.sens, tc.spec); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	// Empty evidence is a clone, matching Condition's contract.
	post, err := j.ConditionWeighted(nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(post.Worlds()) != 3 {
		t.Fatalf("empty evidence changed the support: %v", post.Worlds())
	}
}
