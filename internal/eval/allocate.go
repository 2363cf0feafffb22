package eval

import (
	"container/heap"
	"fmt"

	"crowdfusion/internal/core"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/info"
	"crowdfusion/internal/parallel"
	"crowdfusion/internal/worlds"
)

// Global budget allocation across books — the extension the paper's error
// analysis calls for (Section V-D: books with many statements run out of
// per-book budget while small books waste theirs; "if a proper strategy
// can be designed to distribute budgets among all subsets of facts, this
// can be solved").
//
// The allocator treats the whole corpus as one submodular maximization:
// at every step it funds the single task, in whichever book, with the
// highest net utility gain ΔQ = H(T∪{f}) - H(T) - H(Crowd). Because a
// book's gains only change when that book receives an answer, the
// per-book best gains are kept in a max-heap and only the funded book is
// re-evaluated — the cross-book analogue of the lazy-greedy prune.

// AllocationConfig configures a globally budgeted run.
type AllocationConfig struct {
	Instances []*worlds.Instance
	// TotalBudget is the corpus-wide number of tasks (compare with
	// SweepConfig.Budget × #books).
	TotalBudget int
	// Pc is the crowd accuracy assumed by selection and merging.
	Pc float64
	// CrowdPc is the simulated crowd's actual accuracy (defaults to Pc).
	CrowdPc float64
	// UseDifficulty routes statement difficulty into the simulation.
	UseDifficulty bool
	Seed          int64
}

// AllocationResult reports where the budget went and what it bought.
type AllocationResult struct {
	Config   AllocationConfig
	PerBook  []int // tasks funded per instance, parallel to Instances
	Joints   []*dist.Joint
	Final    Metrics
	Utility  float64
	Cost     int
	StopFull bool // true when the budget ran out (vs all books certain)
}

// allocBook is one book's run (its Spent counts the tasks funded for it)
// plus its current best single task.
type allocBook struct {
	*bookRun
	bestFact int
	bestGain float64
}

type allocHeap []*allocBook

func (h allocHeap) Len() int            { return len(h) }
func (h allocHeap) Less(i, j int) bool  { return h[i].bestGain > h[j].bestGain }
func (h allocHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *allocHeap) Push(x interface{}) { *h = append(*h, x.(*allocBook)) }
func (h *allocHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// RunAllocation executes the globally budgeted refinement.
func RunAllocation(cfg AllocationConfig) (*AllocationResult, error) {
	if len(cfg.Instances) == 0 {
		return nil, ErrInstanceCount
	}
	if cfg.TotalBudget <= 0 {
		return nil, fmt.Errorf("eval: TotalBudget must be positive")
	}
	noise := info.Binary(cfg.Pc)
	// Each book may take the whole budget; the loop below bounds the sum.
	crowdCfg := SweepConfig{Instances: cfg.Instances, Budget: cfg.TotalBudget, Pc: cfg.Pc,
		CrowdPc: cfg.CrowdPc, UseDifficulty: cfg.UseDifficulty, Seed: cfg.Seed}

	res := &AllocationResult{Config: cfg}
	// Per-book setup — simulator construction plus the O(n) first
	// best-task scan — is independent across books, so it runs on the
	// bounded worker pool; results land at fixed indices and the heap is
	// assembled sequentially in book order, keeping the run
	// deterministic for a fixed seed.
	books := make([]*allocBook, len(cfg.Instances))
	errs := make([]error, len(cfg.Instances))
	parallel.For(0, len(cfg.Instances), func(i int) {
		r, _, err := newRun(crowdCfg, i)
		if err != nil {
			errs[i] = err
			return
		}
		book := &allocBook{bookRun: r}
		books[i], errs[i] = book, book.refreshBest(noise)
	})
	h := make(allocHeap, 0, len(cfg.Instances))
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		if books[i].bestFact >= 0 {
			h = append(h, books[i])
		}
	}
	heap.Init(&h)

	for res.Cost < cfg.TotalBudget && h.Len() > 0 {
		book := heap.Pop(&h).(*allocBook)
		if book.bestGain <= 1e-12 {
			break // every remaining book is certain
		}
		task := []int{book.bestFact}
		post, err := book.run.Update(task, book.sim.Answers(task), nil, nil)
		if err != nil {
			return nil, err
		}
		book.run.Commit(post, 1)
		res.Cost++
		if err := book.refreshBest(noise); err != nil {
			return nil, err
		}
		if book.bestFact >= 0 {
			heap.Push(&h, book)
		}
	}
	res.StopFull = res.Cost >= cfg.TotalBudget

	runs := make([]*bookRun, len(books))
	res.PerBook, res.Joints = make([]int, len(books)), make([]*dist.Joint, len(books))
	for i, book := range books {
		runs[i] = book.bookRun
		res.PerBook[i], res.Joints[i] = book.run.Spent, book.run.Posterior
	}
	var err error
	if res.Utility, res.Final, err = score(runs); err != nil {
		return nil, err
	}
	return res, nil
}

// refreshBest finds the book's current best single task and its net gain.
func (b *allocBook) refreshBest(noise float64) error {
	b.bestFact = -1
	b.bestGain = 0
	for f := 0; f < b.run.Posterior.N(); f++ {
		h, err := core.TaskEntropy(b.run.Posterior, []int{f}, b.run.Pc)
		if err != nil {
			return err
		}
		gain := h - noise
		if gain > b.bestGain {
			b.bestGain = gain
			b.bestFact = f
		}
	}
	return nil
}
