package dist

import (
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
// allocates the posterior's header and one buffer for its probabilities
// and marginals, nothing else; a product prior over the full cube
// allocates its probability vector, its marginals and its header, with
// no copy of the vector and no world slice.
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
		{"Independent", 3, func() error { _, err := Independent(marginals); return err }},
		{"Uniform", 3, func() error { _, err := Uniform(12); return err }},
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
