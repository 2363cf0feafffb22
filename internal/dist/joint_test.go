package dist

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randomJoint builds a sparse distribution with the given support size
// from unnormalized positive weights, exercising the merge/normalize path.
func randomJoint(tb testing.TB, rng *rand.Rand, n, size int) *Joint {
	tb.Helper()
	worlds := make([]World, size)
	probs := make([]float64, size)
	for i := range worlds {
		worlds[i] = World(rng.Int63n(1 << uint(n)))
		probs[i] = rng.Float64() + 1e-6
	}
	j, err := New(n, worlds, probs)
	if err != nil {
		tb.Fatalf("New(%d, %d worlds): %v", n, size, err)
	}
	return j
}

func TestNewValidation(t *testing.T) {
	w := []World{0, 1}
	p := []float64{0.5, 0.5}
	cases := []struct {
		name   string
		n      int
		worlds []World
		probs  []float64
	}{
		{"zero facts", 0, w, p},
		{"too many facts", MaxFacts + 1, w, p},
		{"length mismatch", 2, w, p[:1]},
		{"empty support", 2, nil, nil},
		{"negative prob", 2, w, []float64{0.5, -0.1}},
		{"NaN prob", 2, w, []float64{0.5, math.NaN()}},
		{"Inf prob", 2, w, []float64{0.5, math.Inf(1)}},
		{"zero mass", 2, w, []float64{0, 0}},
		{"world out of range", 2, []World{0, 4}, p},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.n, tc.worlds, tc.probs); err == nil {
				t.Errorf("New(%d, %v, %v) accepted invalid input", tc.n, tc.worlds, tc.probs)
			}
		})
	}
}

func TestNewNormalizesMergesAndSorts(t *testing.T) {
	// Duplicates of world 2 merge; the weights are unnormalized; input
	// order is shuffled; world 1 carries zero weight and is dropped.
	j, err := New(3,
		[]World{5, 2, 1, 2},
		[]float64{2, 1, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if j.SupportSize() != 2 {
		t.Fatalf("support = %d, want 2 (merged + zero dropped)", j.SupportSize())
	}
	if j.Worlds()[0] != 2 || j.Worlds()[1] != 5 {
		t.Errorf("support %v not sorted ascending", j.Worlds())
	}
	if math.Abs(j.Prob(2)-4.0/6) > 1e-12 || math.Abs(j.Prob(5)-2.0/6) > 1e-12 {
		t.Errorf("probs = %v, want [4/6 2/6]", j.Probs())
	}
	if got := j.Prob(1); got != 0 {
		t.Errorf("Prob(dropped world) = %v, want 0", got)
	}
	if got := j.Prob(7); got != 0 {
		t.Errorf("Prob(absent world) = %v, want 0", got)
	}
	if err := j.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNewAcceptsMaxFacts(t *testing.T) {
	// 64 facts exercises the full-width world mask (the Theorem 1
	// reduction builds exactly this shape).
	j, err := New(MaxFacts, []World{0, math.MaxUint64}, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	m, err := j.Marginal(MaxFacts - 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-0.75) > 1e-12 {
		t.Errorf("Marginal(63) = %v, want 0.75", m)
	}
}

// TestMarginalsConsistentWithWorldMass: every marginal lies in [0, 1] and
// equals the total probability of the worlds judging that fact true.
func TestMarginalsConsistentWithWorldMass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(10)
		j := randomJoint(t, rng, n, 1+rng.Intn(20))
		if len(j.Marginals()) != n {
			t.Fatalf("Marginals() has %d entries for %d facts", len(j.Marginals()), n)
		}
		for f := 0; f < n; f++ {
			m, err := j.Marginal(f)
			if err != nil {
				t.Fatal(err)
			}
			if m < 0 || m > 1+1e-12 {
				t.Fatalf("marginal %d = %v outside [0, 1]", f, m)
			}
			var mass float64
			for i, w := range j.Worlds() {
				if w.Has(f) {
					mass += j.Probs()[i]
				}
			}
			if math.Abs(m-mass) > 1e-12 {
				t.Fatalf("marginal %d = %v, world mass = %v", f, m, mass)
			}
			if m != j.Marginals()[f] {
				t.Fatalf("Marginal(%d) disagrees with Marginals()[%d]", f, f)
			}
		}
		if _, err := j.Marginal(-1); err == nil {
			t.Fatal("Marginal(-1) accepted")
		}
		if _, err := j.Marginal(n); err == nil {
			t.Fatal("Marginal(n) accepted")
		}
	}
}

// TestEntropyBoundsAndUniformMaximum: entropy is non-negative, at most n
// bits, exactly n for Uniform(n), and no distribution over n facts beats
// the uniform one.
func TestEntropyBoundsAndUniformMaximum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 8; n++ {
		u, err := Uniform(n)
		if err != nil {
			t.Fatal(err)
		}
		if u.Entropy() != float64(n) {
			t.Errorf("H(Uniform(%d)) = %v, want exactly %d", n, u.Entropy(), n)
		}
		if u.SupportSize() != 1<<uint(n) {
			t.Errorf("Uniform(%d) support = %d", n, u.SupportSize())
		}
		for trial := 0; trial < 50; trial++ {
			j := randomJoint(t, rng, n, 1+rng.Intn(1<<uint(n)))
			h := j.Entropy()
			if h < 0 {
				t.Fatalf("negative entropy %v", h)
			}
			if h > u.Entropy()+1e-9 {
				t.Fatalf("entropy %v exceeds uniform maximum %d", h, n)
			}
			if u := j.Utility(); u != -h {
				t.Fatalf("Utility() = %v, want %v", u, -h)
			}
		}
	}
	// A single-world distribution is certain: zero entropy.
	j, err := New(5, []World{0b10101}, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if j.Entropy() != 0 {
		t.Errorf("H(certain) = %v, want 0", j.Entropy())
	}
}

// TestIndependentAgreesWithDense: the product distribution must equal the
// explicitly tabulated dense distribution on every world.
func TestIndependentAgreesWithDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		marginals := make([]float64, n)
		for i := range marginals {
			marginals[i] = rng.Float64()
		}
		probs := make([]float64, 1<<uint(n))
		for w := range probs {
			p := 1.0
			for i := 0; i < n; i++ {
				if w&(1<<uint(i)) != 0 {
					p *= marginals[i]
				} else {
					p *= 1 - marginals[i]
				}
			}
			probs[w] = p
		}
		ind, err := Independent(marginals)
		if err != nil {
			t.Fatal(err)
		}
		den, err := Dense(n, probs)
		if err != nil {
			t.Fatal(err)
		}
		if ind.SupportSize() != den.SupportSize() {
			t.Fatalf("support %d vs %d", ind.SupportSize(), den.SupportSize())
		}
		for i, w := range ind.Worlds() {
			if den.Worlds()[i] != w {
				t.Fatalf("world order differs at %d", i)
			}
			if math.Abs(ind.Probs()[i]-den.Probs()[i]) > 1e-12 {
				t.Fatalf("P(%v) = %v vs %v", w, ind.Probs()[i], den.Probs()[i])
			}
		}
		// And the marginals round-trip through the joint.
		for f, m := range marginals {
			got, err := ind.Marginal(f)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-m) > 1e-9 {
				t.Fatalf("marginal %d = %v, want %v", f, got, m)
			}
		}
	}
}

func TestIndependentExtremeMarginals(t *testing.T) {
	// Marginals of 0 and 1 rule worlds out: the support shrinks to the
	// single consistent world.
	j, err := Independent([]float64{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if j.SupportSize() != 1 || j.Worlds()[0] != 0b101 {
		t.Fatalf("support = %v, want [0b101]", j.Worlds())
	}
	if j.Entropy() != 0 {
		t.Errorf("entropy %v, want 0", j.Entropy())
	}
	if _, err := Independent([]float64{0.5, 1.2}); err == nil {
		t.Error("marginal > 1 accepted")
	}
	if _, err := Independent(nil); err == nil {
		t.Error("empty marginals accepted")
	}
}

func TestFactEntropy(t *testing.T) {
	// Two perfectly correlated facts: one bit of judgment entropy total.
	j, err := New(2, []World{0b00, 0b11}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, facts := range [][]int{{0}, {1}, {0, 1}} {
		h, err := j.FactEntropy(facts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(h-1) > 1e-12 {
			t.Errorf("FactEntropy(%v) = %v, want 1", facts, h)
		}
	}
	if h, err := j.FactEntropy(nil); err != nil || h != 0 {
		t.Errorf("FactEntropy(nil) = %v, %v; want 0, nil", h, err)
	}
	if _, err := j.FactEntropy([]int{2}); err == nil {
		t.Error("out-of-range fact accepted")
	}
	if _, err := j.FactEntropy([]int{0, 0}); err == nil {
		t.Error("duplicate fact accepted")
	}
	// FactEntropy over all facts equals the distribution entropy.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		j := randomJoint(t, rng, n, 1+rng.Intn(12))
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		h, err := j.FactEntropy(all)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(h-j.Entropy()) > 1e-9 {
			t.Fatalf("FactEntropy(all) = %v, H = %v", h, j.Entropy())
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	j, err := New(3, []World{1, 6}, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	c := j.Clone()
	if c == j {
		t.Fatal("Clone returned the receiver")
	}
	c.Worlds()[0] = 7
	c.Probs()[0] = 99
	c.Marginals()[0] = 99
	if j.Worlds()[0] != 1 || j.Probs()[0] != 0.25 {
		t.Error("mutating the clone reached the original")
	}
	if err := j.Validate(); err != nil {
		t.Errorf("original invalidated: %v", err)
	}
	if err := c.Validate(); err == nil {
		t.Error("Validate missed the tampered clone")
	}
}

func TestTruncate(t *testing.T) {
	j, err := New(3,
		[]World{0, 1, 2, 3},
		[]float64{0.4, 0.3, 0.2, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	tr := j.Truncate(2)
	if tr.SupportSize() != 2 {
		t.Fatalf("support = %d, want 2", tr.SupportSize())
	}
	if tr.Worlds()[0] != 0 || tr.Worlds()[1] != 1 {
		t.Errorf("kept worlds %v, want the top-2 by probability [0 1]", tr.Worlds())
	}
	if math.Abs(tr.Prob(0)-4.0/7) > 1e-12 || math.Abs(tr.Prob(1)-3.0/7) > 1e-12 {
		t.Errorf("truncated probs %v not renormalized", tr.Probs())
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if got := j.Truncate(10); got != j {
		t.Error("Truncate past the support should return the receiver")
	}
	if got := j.Truncate(0); got.SupportSize() != 1 {
		t.Errorf("Truncate(0) support = %d, want clamp to 1", got.SupportSize())
	}
	// The original is untouched.
	if j.SupportSize() != 4 {
		t.Errorf("Truncate modified the receiver (support %d)", j.SupportSize())
	}
}

// TestJointStatsLazy: a posterior's marginals and entropy are not
// computed by the conditioning but on their first read, and that read —
// by any accessor, or by many goroutines at once (run under -race) —
// yields the bits of the eager reference loops, as does a clone's.
func TestJointStatsLazy(t *testing.T) {
	readers := []func(j *Joint){
		func(j *Joint) { j.Entropy() },
		func(j *Joint) { j.Utility() },
		func(j *Joint) { j.Marginal(j.N() - 1) },
		func(j *Joint) { j.Marginals() },
		func(j *Joint) { j.Clone() },
	}
	rng := rand.New(rand.NewSource(23))
	checked := 0
	for n := 1; n <= 12; n++ {
		for _, prior := range refPriors(t, rng, n) {
			k := min(n, 3)
			tasks := rng.Perm(n)[:k]
			answers := make([]bool, k)
			for i := range answers {
				answers[i] = rng.Intn(2) == 0
			}
			want, wantErr := prior.want.refCondition(tasks, answers, 0.8)
			if wantErr != nil {
				t.Fatalf("%s: reference: %v", prior.name, wantErr)
			}
			for r := range readers {
				got, err := prior.got.Condition(tasks, answers, 0.8)
				if err != nil {
					t.Fatal(err)
				}
				if slices.ContainsFunc(want.Marginals(), func(m float64) bool { return m != 0 }) &&
					!slices.ContainsFunc(got.marginals, func(m float64) bool { return m != 0 }) {
					checked++
				} else if slices.ContainsFunc(got.marginals, func(m float64) bool { return m != 0 }) {
					t.Fatalf("%s n=%d: marginals computed before their first read", prior.name, n)
				}
				clones := make([]*Joint, 8)
				var wg sync.WaitGroup
				for g := range clones {
					wg.Add(1)
					go func() {
						defer wg.Done()
						readers[(r+g)%len(readers)](got)
						clones[g] = got.Clone()
					}()
				}
				wg.Wait()
				requireSameBits(t, prior.name+" lazy", got, want, nil, nil)
				for _, c := range clones {
					requireSameBits(t, prior.name+" clone", c, want, nil, nil)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no posterior with a nonzero marginal was checked")
	}
}

// TestHotPathDoesNotAllocate pins the design requirement that the greedy
// inner loop's queries stay allocation-free.
func TestHotPathDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	j := randomJoint(t, rng, 10, 40)
	for name, fn := range map[string]func(){
		"Entropy":   func() { _ = j.Entropy() },
		"Utility":   func() { _ = j.Utility() },
		"Marginal":  func() { _, _ = j.Marginal(3) },
		"Marginals": func() { _ = j.Marginals() },
		"Prob":      func() { _ = j.Prob(17) },
		"Worlds":    func() { _ = j.Worlds() },
		"Probs":     func() { _ = j.Probs() },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %v times per call", name, allocs)
		}
	}
}

func BenchmarkProb(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	j := randomJoint(b, rng, 16, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = j.Prob(World(i & 0xFFFF))
	}
}

func BenchmarkNewSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	worlds := make([]World, 256)
	probs := make([]float64, 256)
	for i := range worlds {
		worlds[i] = World(rng.Int63n(1 << 16))
		probs[i] = rng.Float64() + 1e-6
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(16, worlds, probs); err != nil {
			b.Fatal(err)
		}
	}
}
