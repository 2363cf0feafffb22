package eval

import (
	"testing"

	"crowdfusion/internal/core"
)

func TestRunAllocationValidation(t *testing.T) {
	if _, err := RunAllocation(AllocationConfig{}); err != ErrInstanceCount {
		t.Errorf("empty config err = %v", err)
	}
	ins := testInstances(t, 3, 8, 30)
	if _, err := RunAllocation(AllocationConfig{Instances: ins, Pc: 0.8}); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestRunAllocationAccounting(t *testing.T) {
	ins := testInstances(t, 6, 10, 31)
	res, err := RunAllocation(AllocationConfig{
		Instances:   ins,
		TotalBudget: 40,
		Pc:          0.8,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 40 {
		t.Errorf("cost %d exceeds total budget", res.Cost)
	}
	var sum int
	for _, c := range res.PerBook {
		if c < 0 {
			t.Errorf("negative per-book cost %d", c)
		}
		sum += c
	}
	if sum != res.Cost {
		t.Errorf("per-book costs sum to %d, cost is %d", sum, res.Cost)
	}
	if len(res.Joints) != len(ins) {
		t.Fatalf("joints = %d", len(res.Joints))
	}
	for i, j := range res.Joints {
		if j.N() != ins[i].N() {
			t.Errorf("joint %d over %d facts, want %d", i, j.N(), ins[i].N())
		}
	}
	if res.Final.Total() == 0 {
		t.Error("no judgments scored")
	}
}

func TestRunAllocationDeterministic(t *testing.T) {
	ins := testInstances(t, 4, 8, 32)
	cfg := AllocationConfig{Instances: ins, TotalBudget: 24, Pc: 0.8, Seed: 7}
	a, err := RunAllocation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAllocation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.Final != b.Final {
		t.Error("allocation runs diverged")
	}
	for i := range a.PerBook {
		if a.PerBook[i] != b.PerBook[i] {
			t.Fatalf("per-book allocation diverged at %d", i)
		}
	}
}

// TestAllocationFavorsUncertainBooks: books that are already near-certain
// should receive less budget than highly uncertain ones.
func TestRunAllocationFavorsUncertainBooks(t *testing.T) {
	ins := testInstances(t, 10, 14, 33)
	res, err := RunAllocation(AllocationConfig{
		Instances:   ins,
		TotalBudget: 60,
		Pc:          0.9,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank books by prior entropy; the most uncertain third should
	// receive more budget in total than the most certain third.
	type pair struct {
		h float64
		c int
	}
	pairs := make([]pair, len(ins))
	for i, in := range ins {
		pairs[i] = pair{h: in.Joint.Entropy(), c: res.PerBook[i]}
	}
	third := len(pairs) / 3
	var lowH, highH []pair
	for _, p := range pairs {
		lowH = append(lowH, p)
	}
	// Simple selection by sorting on entropy.
	for i := 0; i < len(lowH); i++ {
		for j := i + 1; j < len(lowH); j++ {
			if lowH[j].h < lowH[i].h {
				lowH[i], lowH[j] = lowH[j], lowH[i]
			}
		}
	}
	highH = lowH[len(lowH)-third:]
	lowH = lowH[:third]
	var lowCost, highCost int
	for _, p := range lowH {
		lowCost += p.c
	}
	for _, p := range highH {
		highCost += p.c
	}
	if highCost <= lowCost {
		t.Errorf("uncertain books got %d tasks, certain books got %d", highCost, lowCost)
	}
}

// TestAllocationVsUniform: at the same total budget, global allocation
// should match or beat the uniform per-book split on F1, averaged over
// seeds — the claim behind the Section V-D suggestion.
func TestRunAllocationVsUniform(t *testing.T) {
	ins := testInstances(t, 12, 14, 34)
	const perBook = 6
	total := perBook * len(ins)
	var allocF1, uniformF1 float64
	const seeds = 6
	for s := int64(0); s < seeds; s++ {
		a, err := RunAllocation(AllocationConfig{
			Instances:   ins,
			TotalBudget: total,
			Pc:          0.8,
			Seed:        400 + 13*s,
		})
		if err != nil {
			t.Fatal(err)
		}
		u, err := RunSweep(SweepConfig{
			Instances: ins,
			Selector:  core.SelApproxPrune,
			K:         1,
			Budget:    perBook,
			Pc:        0.8,
			Seed:      400 + 13*s,
		})
		if err != nil {
			t.Fatal(err)
		}
		allocF1 += a.Final.F1()
		uniformF1 += u.Final.F1()
	}
	if allocF1 < uniformF1-0.02*seeds {
		t.Errorf("global allocation avg F1 %v below uniform %v",
			allocF1/seeds, uniformF1/seeds)
	}
}

// TestAllocationStopsWhenCertain: with a tiny corpus and huge budget, the
// allocator must stop on its own once every book is certain.
func TestRunAllocationStopsWhenCertain(t *testing.T) {
	ins := testInstances(t, 3, 8, 35)
	res, err := RunAllocation(AllocationConfig{
		Instances:   ins,
		TotalBudget: 100000,
		Pc:          1.0, // perfect crowd pins facts quickly
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopFull {
		t.Error("allocator claimed to exhaust an absurdly large budget")
	}
	if res.Cost >= 100000 {
		t.Errorf("cost = %d", res.Cost)
	}
	// With a perfect crowd everything should be judged correctly.
	if res.Final.F1() < 0.999 {
		t.Errorf("perfect crowd F1 = %v", res.Final.F1())
	}
}
