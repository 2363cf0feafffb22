package core

import (
	"math"
	"math/rand"
	"testing"

	"crowdfusion/internal/dist"
	"crowdfusion/internal/info"
)

// paperJoint rebuilds the running-example joint distribution of Table II,
// with fact indices 0..3 standing for f1..f4.
func paperJoint(tb testing.TB) *dist.Joint {
	tb.Helper()
	rows := []struct {
		judgments string
		p         float64
	}{
		{"FFFF", 0.03}, {"FFFT", 0.06}, {"FFTF", 0.07}, {"FFTT", 0.04},
		{"FTFF", 0.09}, {"FTFT", 0.01}, {"FTTF", 0.11}, {"FTTT", 0.09},
		{"TFFF", 0.04}, {"TFFT", 0.04}, {"TFTF", 0.04}, {"TFTT", 0.05},
		{"TTFF", 0.06}, {"TTFT", 0.09}, {"TTTF", 0.07}, {"TTTT", 0.11},
	}
	worlds := make([]dist.World, len(rows))
	probs := make([]float64, len(rows))
	for i, r := range rows {
		var w dist.World
		for fi, c := range r.judgments {
			if c == 'T' {
				w = w.Set(fi, true)
			}
		}
		worlds[i] = w
		probs[i] = r.p
	}
	j, err := dist.New(4, worlds, probs)
	if err != nil {
		tb.Fatalf("building paper joint: %v", err)
	}
	return j
}

// bruteTaskEntropy computes H(T) through a completely separate code path:
// direct enumeration of all answer sets with Equation 2 via
// Joint.AnswerSetProb.
func bruteTaskEntropy(tb testing.TB, j *dist.Joint, tasks []int, pc float64) float64 {
	tb.Helper()
	k := len(tasks)
	var h float64
	for bitsPat := 0; bitsPat < 1<<uint(k); bitsPat++ {
		answers := make([]bool, k)
		for i := 0; i < k; i++ {
			answers[i] = bitsPat&(1<<uint(i)) != 0
		}
		p, err := j.AnswerSetProb(tasks, answers, pc)
		if err != nil {
			tb.Fatal(err)
		}
		h -= info.PLogP(p)
	}
	return h
}

func randomJoint(rng *rand.Rand, n, size int) *dist.Joint {
	worlds := make([]dist.World, size)
	probs := make([]float64, size)
	for i := range worlds {
		worlds[i] = dist.World(rng.Int63n(1 << uint(n)))
		probs[i] = rng.Float64() + 1e-6
	}
	j, err := dist.New(n, worlds, probs)
	if err != nil {
		panic(err)
	}
	return j
}

// --- Golden tests against the paper's running example -----------------

// TestPaperTable3 pins the fact entropies and task entropies of Table III
// for every 2-subset at Pc = 0.8.
//
// Note on labels: the paper's Table III is internally consistent with its
// Table II only under the reversed fact labelling (f1<->f4, f2<->f3); the
// value sets match exactly. The expectations below use the Table II bit
// convention, with the paper's printed row noted alongside.
func TestPaperTable3(t *testing.T) {
	j := paperJoint(t)
	tests := []struct {
		name      string
		tasks     []int
		factH     float64 // H({f_i | f_i in T})
		taskH     float64 // H(T) at Pc = 0.8
		paperRow  string
		tolerance float64
	}{
		{"f1,f2", []int{0, 1}, 1.948, 1.982, "printed as {f3,f4}", 1e-3},
		{"f1,f3", []int{0, 2}, 1.977, 1.993, "printed as {f2,f4}", 1e-3},
		{"f1,f4", []int{0, 3}, 1.976, 1.997, "printed as {f1,f4}", 1e-3},
		{"f2,f3", []int{1, 2}, 1.929, 1.975, "printed as {f2,f3}", 1e-3},
		{"f2,f4", []int{1, 3}, 1.949, 1.982, "printed as {f1,f3}", 1e-3},
		{"f3,f4", []int{2, 3}, 1.981, 1.993, "printed as {f1,f2}", 1e-3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fh, err := j.FactEntropy(tt.tasks)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(fh-tt.factH) > tt.tolerance {
				t.Errorf("fact entropy = %.4f, want %.3f (%s)", fh, tt.factH, tt.paperRow)
			}
			th, err := TaskEntropy(j, tt.tasks, 0.8)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(th-tt.taskH) > tt.tolerance {
				t.Errorf("task entropy = %.4f, want %.3f (%s)", th, tt.taskH, tt.paperRow)
			}
			// Cross-check the fast path against direct Equation 2
			// enumeration.
			if brute := bruteTaskEntropy(t, j, tt.tasks, 0.8); math.Abs(th-brute) > 1e-9 {
				t.Errorf("TaskEntropy = %v disagrees with brute force %v", th, brute)
			}
		})
	}
}

// TestPaperTable4 pins the answer joint distribution of Table IV: asking
// all four facts at Pc = 0.8. On the dense support the preprocessing's
// answer joint is exact.
func TestPaperTable4(t *testing.T) {
	j := paperJoint(t)
	pre, err := Preprocess(j, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// Paper rows a1..a16 in the same F/T enumeration as Table II.
	want := map[string]float64{
		"FFFF": 0.049, "FFFT": 0.050, "FFTF": 0.063, "FFTT": 0.055,
		"FTFF": 0.071, "FTFT": 0.049, "FTTF": 0.087, "FTTT": 0.077,
		"TFFF": 0.047, "TFFT": 0.051, "TFTF": 0.052, "TFTT": 0.056,
		"TTFF": 0.065, "TTFT": 0.071, "TTTF": 0.073, "TTTT": 0.085,
	}
	var total float64
	for r, w := range pre.Joint().Worlds() {
		key := ""
		for i := 0; i < 4; i++ {
			if w.Has(i) {
				key += "T"
			} else {
				key += "F"
			}
		}
		got := pre.AnswerProb(r)
		if math.Abs(got-want[key]) > 1e-3 {
			t.Errorf("P(a=%s) = %.4f, want %.3f", key, got, want[key])
		}
		total += got
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("answer joint sums to %v on a dense support, want 1", total)
	}
	if math.Abs(pre.CoveredMass()-1) > 1e-9 {
		t.Errorf("CoveredMass = %v on dense support", pre.CoveredMass())
	}
	// The exact value of a1 from the paper's own arithmetic.
	if a1 := pre.AnswerProb(0); math.Abs(a1-0.048688) > 1e-9 {
		t.Errorf("P(a1) = %v, want 0.048688", a1)
	}
}

// TestPaperGreedyTrace reproduces the Section III-D walkthrough: with
// k = 2 and Pc = 0.8 the greedy algorithm selects f1 first (its answer
// entropy is exactly 1 bit) and then f4, ending with H(T) = 1.997.
func TestPaperGreedyTrace(t *testing.T) {
	j := paperJoint(t)

	h1, err := TaskEntropy(j, []int{0}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h1-1.0) > 1e-12 {
		t.Errorf("H({f1}) = %v, want exactly 1 (P(f1) = 0.5)", h1)
	}

	for _, sel := range []Selector{
		NewGreedy(), NewGreedyPrune(), NewGreedyPre(), NewGreedyPrunePre(), OptSelector{},
	} {
		got, err := sel.Select(j, 2, 0.8)
		if err != nil {
			t.Fatalf("%s: %v", sel.Name(), err)
		}
		if len(got) != 2 || got[0] != 0 || got[1] != 3 {
			t.Errorf("%s selected %v, want [0 3] (f1 and f4)", sel.Name(), got)
		}
		h, err := TaskEntropy(j, got, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(h-1.997) > 1e-3 {
			t.Errorf("%s: H(selection) = %.4f, want 1.997", sel.Name(), h)
		}
	}
}

// TestPaperPcOneSpecialCase: with a perfect crowd the best 2-subset is
// {f1, f2} under the paper's printed labels — in the Table II bit
// convention, the pair with the highest fact entropy, {f3, f4}.
func TestPaperPcOneSpecialCase(t *testing.T) {
	j := paperJoint(t)
	got, err := (OptSelector{}).Select(j, 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("OPT at Pc=1 selected %v, want [2 3] (highest fact entropy)", got)
	}
	// And TaskEntropy degenerates to fact entropy.
	th, err := TaskEntropy(j, got, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := j.FactEntropy(got)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(th-fh) > 1e-12 {
		t.Errorf("H(T) at Pc=1 = %v != fact entropy %v", th, fh)
	}
}

// --- TaskEntropy unit and property tests --------------------------------

func TestTaskEntropyValidation(t *testing.T) {
	j := paperJoint(t)
	if _, err := TaskEntropy(j, []int{0}, 0.4); err != ErrBadAccuracy {
		t.Errorf("pc=0.4 err = %v", err)
	}
	if _, err := TaskEntropy(j, []int{0, 0}, 0.8); err == nil {
		t.Error("duplicate task accepted")
	}
	if _, err := TaskEntropy(j, []int{7}, 0.8); err == nil {
		t.Error("out-of-range task accepted")
	}
	big := make([]int, MaxTasksPerRound+1)
	for i := range big {
		big[i] = i
	}
	if _, err := TaskEntropy(j, big, 0.8); err != ErrTooManyTasks {
		t.Errorf("oversized task set err = %v", err)
	}
	h, err := TaskEntropy(j, nil, 0.8)
	if err != nil || h != 0 {
		t.Errorf("H(empty) = %v, %v; want 0, nil", h, err)
	}
}

func TestTaskEntropyMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(5)
		j := randomJoint(rng, n, 1+rng.Intn(12))
		k := 1 + rng.Intn(3)
		tasks := rng.Perm(n)[:k]
		pc := 0.5 + rng.Float64()*0.5
		got, err := TaskEntropy(j, tasks, pc)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteTaskEntropy(t, j, tasks, pc)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("TaskEntropy=%v brute=%v (n=%d tasks=%v pc=%v)", got, want, n, tasks, pc)
		}
	}
}

// TestTaskEntropyMonotone: H(T) never decreases when a task is added.
func TestTaskEntropyMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(4)
		j := randomJoint(rng, n, 1+rng.Intn(10))
		pc := 0.5 + rng.Float64()*0.5
		perm := rng.Perm(n)
		var h float64
		for k := 1; k <= 4 && k <= n; k++ {
			hk, err := TaskEntropy(j, perm[:k], pc)
			if err != nil {
				t.Fatal(err)
			}
			if hk < h-1e-9 {
				t.Fatalf("H(T) decreased from %v to %v adding task %d", h, hk, perm[k-1])
			}
			h = hk
		}
	}
}

// TestTaskEntropySubmodular: the marginal gain of a fixed task shrinks as
// the base set grows — the property underpinning the (1-1/e) guarantee.
func TestTaskEntropySubmodular(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		n := 5 + rng.Intn(3)
		j := randomJoint(rng, n, 1+rng.Intn(10))
		pc := 0.5 + rng.Float64()*0.5
		perm := rng.Perm(n)
		small := perm[:1]
		large := perm[:3]
		f := perm[4]
		hSmall, err := TaskEntropy(j, small, pc)
		if err != nil {
			t.Fatal(err)
		}
		hSmallF, err := TaskEntropy(j, append(append([]int(nil), small...), f), pc)
		if err != nil {
			t.Fatal(err)
		}
		hLarge, err := TaskEntropy(j, large, pc)
		if err != nil {
			t.Fatal(err)
		}
		hLargeF, err := TaskEntropy(j, append(append([]int(nil), large...), f), pc)
		if err != nil {
			t.Fatal(err)
		}
		gainSmall := hSmallF - hSmall
		gainLarge := hLargeF - hLarge
		if gainLarge > gainSmall+1e-9 {
			t.Fatalf("submodularity violated: gain %v (|T|=1) < %v (|T|=3)", gainSmall, gainLarge)
		}
	}
}

func TestUtilityGain(t *testing.T) {
	j := paperJoint(t)
	// ΔQ = H(T) - k·H(Crowd): for {f1} at 0.8, 1.0 - 0.72193 = 0.27807.
	g, err := UtilityGain(j, []int{0}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-(1.0-0.7219280948873623)) > 1e-12 {
		t.Errorf("UtilityGain = %v", g)
	}
	// A perfect crowd has no noise cost.
	g, err = UtilityGain(j, []int{0}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-1.0) > 1e-12 {
		t.Errorf("UtilityGain at Pc=1 = %v, want 1", g)
	}
}

// --- Preprocessing tests -------------------------------------------------

// TestPreprocessedExactOnDense: on a full-cube support, Algorithm 2's
// marginalization is exact — the answer-noise on unselected facts sums out.
func TestPreprocessedExactOnDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(4)
		probs := make([]float64, 1<<uint(n))
		for i := range probs {
			probs[i] = rng.Float64() + 1e-6
		}
		j, err := dist.Dense(n, probs)
		if err != nil {
			t.Fatal(err)
		}
		pc := 0.5 + rng.Float64()*0.5
		pre, err := Preprocess(j, pc)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(n)
		tasks := rng.Perm(n)[:k]
		exact, err := TaskEntropy(j, tasks, pc)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := pre.TaskEntropy(tasks)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-approx) > 1e-9 {
			t.Fatalf("dense preprocess mismatch: exact %v approx %v (n=%d tasks=%v)",
				exact, approx, n, tasks)
		}
	}
}

func TestPreprocessedSparseApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 50; trial++ {
		n := 6 + rng.Intn(4)
		j := randomJoint(rng, n, 2+rng.Intn(6))
		pc := 0.6 + rng.Float64()*0.4
		pre, err := Preprocess(j, pc)
		if err != nil {
			t.Fatal(err)
		}
		if cm := pre.CoveredMass(); cm <= 0 || cm > 1+1e-9 {
			t.Fatalf("CoveredMass = %v outside (0, 1]", cm)
		}
		tasks := rng.Perm(n)[:2]
		h, err := pre.TaskEntropy(tasks)
		if err != nil {
			t.Fatal(err)
		}
		if h < 0 || h > 2+1e-9 {
			t.Fatalf("approximate H(T) = %v outside [0, 2]", h)
		}
	}
}

func TestPreprocessValidation(t *testing.T) {
	j := paperJoint(t)
	if _, err := Preprocess(j, 0.2); err != ErrBadAccuracy {
		t.Errorf("Preprocess(pc=0.2) err = %v", err)
	}
	pre, err := Preprocess(j, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Pc() != 0.8 {
		t.Errorf("Pc() = %v", pre.Pc())
	}
	if pre.Joint() != j {
		t.Error("Joint() does not round-trip")
	}
	if h, err := pre.TaskEntropy(nil); err != nil || h != 0 {
		t.Errorf("empty task set: %v, %v", h, err)
	}
	if _, err := pre.TaskEntropy([]int{11}); err == nil {
		t.Error("out-of-range task accepted")
	}
}

// TestPartitionRefinement: the incremental partition used by the greedy
// selector gives the same entropies as direct marginalization.
func TestPartitionRefinement(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(4)
		j := randomJoint(rng, n, 2+rng.Intn(10))
		pre, err := Preprocess(j, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		s := getScratch()
		part := newPartition(j.SupportSize(), s)
		var tasks []int
		for _, f := range rng.Perm(n)[:3] {
			viaIncremental := pre.entropyAfter(s, &part, f)
			tasks = append(tasks, f)
			viaDirect, err := pre.TaskEntropy(tasks)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(viaIncremental-viaDirect) > 1e-9 {
				t.Fatalf("incremental %v != direct %v at tasks %v",
					viaIncremental, viaDirect, tasks)
			}
			part.refine(j.Worlds(), f)
		}
		putScratch(s)
	}
}

// --- Selector tests ------------------------------------------------------

func TestSelectorValidation(t *testing.T) {
	j := paperJoint(t)
	sels := []Selector{OptSelector{}, NewGreedy(), NewGreedyPrunePre(), NewRandom(1)}
	for _, s := range sels {
		if _, err := s.Select(j, 0, 0.8); err != ErrNoTasks {
			t.Errorf("%s: k=0 err = %v", s.Name(), err)
		}
		if _, err := s.Select(j, 1, 0.3); err != ErrBadAccuracy {
			t.Errorf("%s: pc=0.3 err = %v", s.Name(), err)
		}
		// k > n is clamped, not an error.
		got, err := s.Select(j, 10, 0.8)
		if err != nil {
			t.Errorf("%s: k>n: %v", s.Name(), err)
		}
		if len(got) > 4 {
			t.Errorf("%s: selected %d tasks from 4 facts", s.Name(), len(got))
		}
	}
}

func TestSelectorNames(t *testing.T) {
	want := map[Selector]string{
		OptSelector{}:       "OPT",
		NewGreedy():         "Approx",
		NewGreedyPrune():    "Approx+Prune",
		NewGreedyPre():      "Approx+Pre",
		NewGreedyPrunePre(): "Approx+Prune+Pre",
		NewRandom(1):        "Random",
	}
	for s, n := range want {
		if s.Name() != n {
			t.Errorf("Name() = %q, want %q", s.Name(), n)
		}
	}
}

// TestGreedyApproximationGuarantee: on random instances the greedy task
// entropy must reach at least (1 - 1/e) of OPT's. (Empirically it is almost
// always equal.)
func TestGreedyApproximationGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ratio := 1 - 1/math.E
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(3)
		j := randomJoint(rng, n, 2+rng.Intn(10))
		pc := 0.5 + rng.Float64()*0.5
		k := 2 + rng.Intn(2)

		opt, err := (OptSelector{}).Select(j, k, pc)
		if err != nil {
			t.Fatal(err)
		}
		hOpt, err := TaskEntropy(j, opt, pc)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := NewGreedy().Select(j, k, pc)
		if err != nil {
			t.Fatal(err)
		}
		hGreedy, err := TaskEntropy(j, greedy, pc)
		if err != nil {
			t.Fatal(err)
		}
		if len(greedy) < k {
			// Greedy stopped early (K* < k): legitimate only when no
			// remaining task nets positive utility beyond crowd noise.
			for f := 0; f < n; f++ {
				already := false
				for _, s := range greedy {
					if s == f {
						already = true
					}
				}
				if already {
					continue
				}
				hWith, err := TaskEntropy(j, append(append([]int(nil), greedy...), f), pc)
				if err != nil {
					t.Fatal(err)
				}
				if hWith-hGreedy-info.Binary(pc) > 1e-9 {
					t.Fatalf("greedy stopped early but fact %d still nets %v",
						f, hWith-hGreedy-info.Binary(pc))
				}
			}
			continue
		}
		if hGreedy < ratio*hOpt-1e-9 {
			t.Fatalf("greedy %v below (1-1/e)*OPT %v (n=%d k=%d)", hGreedy, ratio*hOpt, n, k)
		}
		if hGreedy > hOpt+1e-9 {
			t.Fatalf("greedy %v exceeds OPT %v — OPT is broken", hGreedy, hOpt)
		}
	}
}

// TestGreedyVariantsAgree: preprocessing is an evaluation accelerator — on
// dense supports (where it is exact) all greedy variants must select task
// sets of identical quality; the submodularity-based prune must never
// change the result.
func TestGreedyVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(3)
		probs := make([]float64, 1<<uint(n))
		for i := range probs {
			probs[i] = rng.Float64() + 1e-6
		}
		j, err := dist.Dense(n, probs)
		if err != nil {
			t.Fatal(err)
		}
		pc := 0.5 + rng.Float64()*0.5
		k := 1 + rng.Intn(n)

		base, err := NewGreedy().Select(j, k, pc)
		if err != nil {
			t.Fatal(err)
		}
		hBase, err := TaskEntropy(j, base, pc)
		if err != nil {
			t.Fatal(err)
		}
		variants := []*GreedySelector{
			NewGreedyPre(),
			NewGreedyPrune(),
			NewGreedyPrunePre(),
		}
		for _, v := range variants {
			got, err := v.Select(j, k, pc)
			if err != nil {
				t.Fatalf("%s: %v", v.Name(), err)
			}
			hGot, err := TaskEntropy(j, got, pc)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(hGot-hBase) > 1e-9 {
				t.Errorf("%s achieved H=%v, plain greedy H=%v (n=%d k=%d trial=%d)",
					v.Name(), hGot, hBase, n, k, trial)
			}
		}
	}
}

// TestLazyPruneMatchesGreedyOnSparse: the sound prune must match plain
// greedy's achieved entropy on sparse supports too, where the paper's
// literal bound demonstrably does not.
func TestLazyPruneMatchesGreedyOnSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.Intn(4)
		j := randomJoint(rng, n, 2+rng.Intn(12))
		pc := 0.5 + rng.Float64()*0.5
		k := 2 + rng.Intn(3)
		base, err := NewGreedy().Select(j, k, pc)
		if err != nil {
			t.Fatal(err)
		}
		hBase, err := TaskEntropy(j, base, pc)
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := NewGreedyPrune().Select(j, k, pc)
		if err != nil {
			t.Fatal(err)
		}
		hPruned, err := TaskEntropy(j, pruned, pc)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(hPruned-hBase) > 1e-9 {
			t.Errorf("lazy prune changed quality: %v vs %v (n=%d k=%d)", hPruned, hBase, n, k)
		}
	}
}

// TestLiteralPaperPruneAblation documents the Theorem 3 discrepancy: the
// rule as printed can discard facts a later iteration needs, losing real
// quality on sparse instances. We bound how bad it gets (it keeps at least
// the first greedy pick, so it retains a constant fraction) and verify it
// never *beats* plain greedy, which would indicate a broken comparison.
func TestLiteralPaperPruneAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	literal := &GreedySelector{Options: GreedyOptions{Prune: true, LiteralPaperRule: true}}
	sawLoss := false
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.Intn(4)
		j := randomJoint(rng, n, 2+rng.Intn(12))
		pc := 0.5 + rng.Float64()*0.5
		k := 2 + rng.Intn(3)
		base, err := NewGreedy().Select(j, k, pc)
		if err != nil {
			t.Fatal(err)
		}
		hBase, err := TaskEntropy(j, base, pc)
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := literal.Select(j, k, pc)
		if err != nil {
			t.Fatal(err)
		}
		hPruned, err := TaskEntropy(j, pruned, pc)
		if err != nil {
			t.Fatal(err)
		}
		if hPruned > hBase+1e-9 {
			t.Errorf("literal prune beat greedy: %v vs %v", hPruned, hBase)
		}
		if hPruned < 0.4*hBase-1e-9 {
			t.Errorf("literal prune catastrophically bad: %v vs %v", hPruned, hBase)
		}
		if hPruned < hBase-1e-9 {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Log("literal paper rule never lost quality on these instances")
	}
}

// TestGreedyStopsOnCertainFacts: when the distribution has a single world
// (every fact certain) no task has positive gain and selection returns
// empty (K* = 0).
func TestGreedyStopsOnCertainFacts(t *testing.T) {
	j, err := dist.New(4, []dist.World{0b1010}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Selector{NewGreedy(), NewGreedyPrunePre()} {
		got, err := s.Select(j, 3, 0.8)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(got) != 0 {
			t.Errorf("%s selected %v from a certain distribution", s.Name(), got)
		}
	}
}

// TestGreedyPartialStop: with one certain fact and one uncertain fact,
// greedy asks only the uncertain one even when k = 2 (K* < k).
func TestGreedyPartialStop(t *testing.T) {
	// Fact 0 is true in both worlds (certain); fact 1 is uncertain.
	j, err := dist.New(2, []dist.World{0b01, 0b11}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewGreedy().Select(j, 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("selected %v, want just the uncertain fact [1]", got)
	}
}

func TestRandomSelector(t *testing.T) {
	j := paperJoint(t)
	r := NewRandom(99)
	got, err := r.Select(j, 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] == got[1] {
		t.Errorf("random selection invalid: %v", got)
	}
	for _, f := range got {
		if f < 0 || f > 3 {
			t.Errorf("fact %d out of range", f)
		}
	}
	// Deterministic under the same seed.
	r2 := NewRandom(99)
	got2, _ := r2.Select(j, 2, 0.8)
	for i := range got {
		if got[i] != got2[i] {
			t.Error("same-seed random selectors diverged")
		}
	}
}

func TestNextCombination(t *testing.T) {
	subset := []int{0, 1}
	var all [][]int
	for {
		all = append(all, append([]int(nil), subset...))
		if !nextCombination(subset, 4) {
			break
		}
	}
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if len(all) != len(want) {
		t.Fatalf("enumerated %d combinations, want %d", len(all), len(want))
	}
	for i := range want {
		for jj := range want[i] {
			if all[i][jj] != want[i][jj] {
				t.Fatalf("combination %d = %v, want %v", i, all[i], want[i])
			}
		}
	}
}

func TestOptRefusesExplosion(t *testing.T) {
	// 40 facts choose 10 is ~8.5e8 subsets — must be refused, not attempted.
	worlds := make([]dist.World, 8)
	probs := make([]float64, 8)
	for i := range worlds {
		worlds[i] = dist.World(i * 5)
		probs[i] = 1.0 / 8
	}
	j, err := dist.New(40, worlds, probs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (OptSelector{}).Select(j, 10, 0.8); err == nil {
		t.Error("OPT attempted an astronomically large enumeration")
	}
}

func TestNewSelector(t *testing.T) {
	kinds := []SelectorKind{SelOPT, SelApprox, SelApproxPrune, SelApproxPre, SelApproxFull, SelRandom}
	for _, k := range kinds {
		s, err := NewSelector(k, 1)
		if err != nil {
			t.Errorf("%s: %v", k, err)
		}
		if s == nil {
			t.Errorf("%s: nil selector", k)
		}
	}
	if _, err := NewSelector("nope", 1); err == nil {
		t.Error("unknown kind accepted")
	}
}
