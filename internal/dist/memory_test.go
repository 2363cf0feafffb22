package dist

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"weak"
)

// memoryPrior is a 12-fact product prior with every marginal inside
// (0, 1), so its support is the full 4096-world cube.
func memoryPrior(t *testing.T, shift float64) *Joint {
	t.Helper()
	m := make([]float64, 12)
	for i := range m {
		m[i] = 0.3 + shift + 0.03*float64(i)
	}
	j, err := Independent(m)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestDroppedPosteriorIsCollected: a posterior owns nothing another
// posterior can keep reachable. Three posteriors of one prior are made in
// a row and only the middle one is kept; once the collector has run, the
// probability buffers of the first and the third are gone. (Two dropped
// neighbours, not one, so a shared allocation behind consecutive
// posteriors is caught wherever its boundary falls.)
func TestDroppedPosteriorIsCollected(t *testing.T) {
	prior := memoryPrior(t, 0)
	condition := func(f int) *Joint {
		post, err := prior.Condition([]int{f}, []bool{true}, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		return post
	}
	first := weak.Make(&condition(0).Probs()[0])
	live := condition(1)
	third := weak.Make(&condition(2).Probs()[0])
	runtime.GC()
	runtime.GC()
	if first.Value() != nil || third.Value() != nil {
		t.Errorf("dropped posteriors still reachable (first %v, third %v) while a sibling is live",
			first.Value() != nil, third.Value() != nil)
	}
	runtime.KeepAlive(live)
}

// isCube reports whether ws is World(0)…World(2^n−1) in order.
func isCube(ws []World, n int) bool {
	if len(ws) != 1<<uint(n) {
		return false
	}
	for i, w := range ws {
		if w != World(i) {
			return false
		}
	}
	return true
}

// TestFullSupportSharesCube: every full-support Joint over n facts — priors
// from any constructor and their posteriors — points at one world array,
// while a support with a world missing owns its compacted copy and leaves
// the shared cube intact.
func TestFullSupportSharesCube(t *testing.T) {
	a, b := memoryPrior(t, 0), memoryPrior(t, 0.1)
	postA, err := a.Condition([]int{0, 3}, []bool{true, false}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	postB, err := b.ConditionWeighted([]int{1, 2}, []bool{false, true}, []float64{0.9, 0.7}, []float64{0.8, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	uni, err := Uniform(12)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(12, a.Worlds(), a.Probs())
	if err != nil {
		t.Fatal(err)
	}
	cube := &a.Worlds()[0]
	for name, j := range map[string]*Joint{"independent": b, "posterior": postA,
		"weighted posterior": postB, "uniform": uni, "new": restored} {
		if &j.Worlds()[0] != cube {
			t.Errorf("%s: full support not shared", name)
		}
	}
	if !isCube(a.Worlds(), 12) {
		t.Fatal("shared support is not the cube")
	}

	dense := make([]float64, 1<<12)
	for i := range dense {
		dense[i] = 1
	}
	dense[5] = 0
	holed, err := Dense(12, dense)
	if err != nil {
		t.Fatal(err)
	}
	if holed.SupportSize() != 1<<12-1 || &holed.Worlds()[0] == cube {
		t.Errorf("zero-weight prior: support %d, shared %v; want its own 4095 worlds",
			holed.SupportSize(), &holed.Worlds()[0] == cube)
	}
	if err := holed.Validate(); err != nil {
		t.Error(err)
	}

	// pc = 1 rules out every world judging fact 0 false.
	sure, err := a.Condition([]int{0}, []bool{true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sure.SupportSize() != 1<<11 || &sure.Worlds()[0] == cube {
		t.Errorf("pc=1 posterior: support %d, shared %v; want its own 2048 worlds",
			sure.SupportSize(), &sure.Worlds()[0] == cube)
	}
	for i, w := range sure.Worlds() {
		if w != World(2*i+1) {
			t.Fatalf("pc=1 posterior world %d = %d, want %d", i, w, 2*i+1)
		}
	}
	if !isCube(a.Worlds(), 12) {
		t.Error("compacting a posterior wrote into the shared cube")
	}
	if err := a.Validate(); err != nil {
		t.Error(err)
	}
}

// TestCubeSharedAcrossGoroutines: priors built at once on several
// goroutines agree on one cube, whichever of them installs it.
func TestCubeSharedAcrossGoroutines(t *testing.T) {
	const n, goroutines = 9, 8
	got := make([]*World, goroutines)
	var wg sync.WaitGroup
	for b := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := Uniform(n)
			if err != nil {
				t.Error(err)
				return
			}
			got[b] = &j.Worlds()[0]
		}()
	}
	wg.Wait()
	for b, p := range got {
		if p != got[0] {
			t.Fatalf("goroutine %d got its own support, not the shared cube", b)
		}
	}
}

// TestConstructionAllocations: a conditioning that rules no world out
// allocates the posterior's header and its probability buffer, nothing
// else; so does a product prior over the full cube, with no copy of the
// vector and no world slice. The marginals ride in the header.
func TestConstructionAllocations(t *testing.T) {
	prior := memoryPrior(t, 0)
	marginals := append([]float64(nil), prior.Marginals()...)
	tasks, answers := []int{1, 6, 11}, []bool{true, false, true}
	sens, spec := []float64{0.9, 0.7, 0.8}, []float64{0.85, 0.6, 0.75}
	for _, c := range []struct {
		name string
		want float64
		fn   func() error
	}{
		{"Condition", 2, func() error { _, err := prior.Condition(tasks, answers, 0.8); return err }},
		{"ConditionWeighted", 2, func() error { _, err := prior.ConditionWeighted(tasks, answers, sens, spec); return err }},
		{"Independent", 2, func() error { _, err := Independent(marginals); return err }},
		{"Uniform", 2, func() error { _, err := Uniform(12); return err }},
	} {
		var err error
		if got := testing.AllocsPerRun(20, func() { err = c.fn() }); got != c.want {
			t.Errorf("%s allocates %v times, want %v", c.name, got, c.want)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

// bytesPerRun returns the heap bytes one call of fn allocates: the least
// of three averages over runs calls, so a stray allocation elsewhere in
// the process cannot inflate it.
func bytesPerRun(runs int, fn func()) uint64 {
	fn() // warm: the shared cube, lazily built tables
	best := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			fn()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
	}
	return best
}

// TestProbabilityBufferExactSize: the probability buffer of every
// constructor's and every conditioning's result is exactly its support,
// with nothing behind it. cap(Probs()) shows the slice; the bytes a call
// allocates show the buffer beneath it, which a three-index slice would
// hide: a 12-fact result may allocate its 32 KiB of probabilities and a
// header, not the 40 KiB span that 32 KiB plus the marginals rounds to.
func TestProbabilityBufferExactSize(t *testing.T) {
	prior := memoryPrior(t, 0)
	marginals := append([]float64(nil), prior.Marginals()...)
	tasks, answers := []int{1, 6, 11}, []bool{true, false, true}
	sens, spec := []float64{0.9, 0.7, 0.8}, []float64{0.85, 0.6, 0.75}
	rng := rand.New(rand.NewSource(3))
	sparse := randomJoint(t, rng, 30, 50)
	holed := make([]float64, 1<<12)
	for i := range holed {
		holed[i] = float64(i % 7)
	}
	const header = 512 // a Joint header with its inline marginals, with room
	for _, c := range []struct {
		name  string
		fn    func() (*Joint, error)
		bytes bool // fn allocates only the result: gate its bytes too
	}{
		{"New", func() (*Joint, error) { return New(30, sparse.Worlds(), sparse.Probs()) }, false},
		{"Dense", func() (*Joint, error) { return Dense(12, holed) }, false},
		{"Uniform", func() (*Joint, error) { return Uniform(12) }, true},
		{"Independent", func() (*Joint, error) { return Independent(marginals) }, true},
		{"Clone", func() (*Joint, error) { return prior.Clone(), nil }, false},
		{"Truncate", func() (*Joint, error) { return prior.Truncate(1000), nil }, false},
		{"Condition", func() (*Joint, error) { return prior.Condition(tasks, answers, 0.8) }, true},
		{"Condition/pc=1", func() (*Joint, error) { return prior.Condition(tasks, answers, 1) }, false},
		{"ConditionWeighted", func() (*Joint, error) { return prior.ConditionWeighted(tasks, answers, sens, spec) }, true},
		{"Condition/sparse", func() (*Joint, error) { return sparse.Condition([]int{0, 29}, []bool{true, false}, 0.7) }, false},
	} {
		j, err := c.fn()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cap(j.Probs()) != j.SupportSize() {
			t.Errorf("%s: cap(Probs()) = %d for a support of %d", c.name, cap(j.Probs()), j.SupportSize())
		}
		if !c.bytes {
			continue
		}
		want := uint64(8*j.SupportSize() + header)
		if got := bytesPerRun(20, func() { _, err = c.fn() }); got > want {
			t.Errorf("%s allocates %d B per call for a support of %d, want at most %d",
				c.name, got, j.SupportSize(), want)
		}
	}
}

// TestSparseMarginalsBeyondInline: past MaxDenseFacts the marginals do
// not fit the header's inline array and get a buffer of their own. They
// still match a plain per-fact sum in support order bit for bit, for a
// sparse prior and its posterior, and neither shares them with the other.
func TestSparseMarginalsBeyondInline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = MaxDenseFacts + 10
	prior := randomJoint(t, rng, n, 200)
	post, err := prior.Condition([]int{0, 7, MaxDenseFacts, n - 1}, []bool{true, false, true, true}, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	for name, j := range map[string]*Joint{"prior": prior, "posterior": post} {
		got := j.Marginals()
		if len(got) != n || cap(got) != n {
			t.Fatalf("%s: marginals len %d cap %d, want %d", name, len(got), cap(got), n)
		}
		for f := 0; f < n; f++ {
			var want float64
			for i, w := range j.Worlds() {
				if w.Has(f) {
					want += j.Probs()[i]
				}
			}
			if math.Float64bits(got[f]) != math.Float64bits(want) {
				t.Errorf("%s: marginal %d = %v, plain sum %v", name, f, got[f], want)
			}
		}
	}
	if &prior.Marginals()[0] == &post.Marginals()[0] {
		t.Error("posterior shares its prior's marginals")
	}
}
