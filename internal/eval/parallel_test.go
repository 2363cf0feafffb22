package eval

import (
	"reflect"
	"testing"

	"crowdfusion/internal/core"
)

// Tests that the parallelized evaluation loops are observationally
// identical to sequential runs: books own their RNG streams and results
// land at fixed indices, so worker count must never leak into outputs.

// TestSweepParallelismLevelsIdentical: sequential (1), auto (0 =
// GOMAXPROCS) and oversubscribed (8) runs of the same sweep produce
// byte-identical traces, finals and posteriors.
func TestSweepParallelismLevelsIdentical(t *testing.T) {
	ins := testInstances(t, 8, 10, 17)
	base := SweepConfig{
		Instances: ins, Selector: core.SelApproxFull,
		K: 2, Budget: 10, Pc: 0.8, Seed: 5,
		Parallelism: 1,
	}
	want, err := RunSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 8} {
		cfg := base
		cfg.Parallelism = workers
		got, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Trace, want.Trace) {
			t.Fatalf("parallelism=%d: trace differs from sequential", workers)
		}
		if got.Final != want.Final {
			t.Fatalf("parallelism=%d: final metrics differ", workers)
		}
		if len(got.Joints) != len(want.Joints) {
			t.Fatalf("parallelism=%d: joint counts differ", workers)
		}
		for i := range got.Joints {
			if !reflect.DeepEqual(got.Joints[i].Worlds(), want.Joints[i].Worlds()) ||
				!reflect.DeepEqual(got.Joints[i].Probs(), want.Joints[i].Probs()) {
				t.Fatalf("parallelism=%d: posterior %d differs", workers, i)
			}
		}
	}
}

// TestSweepRandomSelectorParallelIdentical: the Random baseline stays
// deterministic under parallel stepping — each book gets its own seeded
// selector, so no draw order depends on scheduling.
func TestSweepRandomSelectorParallelIdentical(t *testing.T) {
	ins := testInstances(t, 8, 10, 19)
	base := SweepConfig{
		Instances: ins, Selector: core.SelRandom,
		K: 2, Budget: 8, Pc: 0.8, Seed: 11,
		Parallelism: 1,
	}
	want, err := RunSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Parallelism = 6
	got, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Trace, want.Trace) {
		t.Fatal("Random-selector sweep diverged under parallelism")
	}
}

// TestAllocationDeterministicUnderParallelSetup: the parallel per-book
// setup of RunAllocation must not perturb the globally greedy funding
// sequence.
func TestAllocationDeterministicUnderParallelSetup(t *testing.T) {
	ins := testInstances(t, 6, 9, 23)
	cfg := AllocationConfig{Instances: ins, TotalBudget: 20, Pc: 0.8, Seed: 13}
	a, err := RunAllocation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAllocation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.PerBook, b.PerBook) {
		t.Fatalf("per-book funding differs across runs: %v vs %v", a.PerBook, b.PerBook)
	}
	if a.Cost != b.Cost || a.Utility != b.Utility || a.Final != b.Final {
		t.Fatal("allocation outcome differs across runs")
	}
}

// TestTimingsParallel: the parallel timing grid still measures every cell.
func TestTimingsParallel(t *testing.T) {
	ins := testInstances(t, 4, 8, 29)
	res, err := RunTimings(TimingConfig{
		Instances:   ins,
		Ks:          []int{1, 2},
		Selectors:   []core.SelectorKind{core.SelApprox, core.SelApproxFull},
		Pc:          0.8,
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.Skipped {
			t.Fatalf("cell k=%d %s unexpectedly skipped", c.K, c.Selector)
		}
		if c.Seconds <= 0 {
			t.Fatalf("cell k=%d %s has non-positive time", c.K, c.Selector)
		}
	}
	if len(res.Cells) != 4 {
		t.Fatalf("expected 4 cells, got %d", len(res.Cells))
	}
}
