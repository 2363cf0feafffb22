package eval

import (
	"fmt"

	"crowdfusion/internal/core"
	"crowdfusion/internal/crowd"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/parallel"
	"crowdfusion/internal/worlds"
)

// SweepConfig describes one quality-vs-budget run over a set of book
// instances, the configuration behind each curve in Figures 2-4.
type SweepConfig struct {
	Instances []*worlds.Instance
	Selector  core.SelectorKind
	// K is the number of tasks selected per round and book.
	K int
	// Budget is the per-book task budget (the paper uses 60).
	Budget int
	// Pc is the crowd accuracy assumed by selection and merging.
	Pc float64
	// CrowdPc is the actual accuracy of the simulated crowd; when 0 it
	// defaults to Pc. Setting them apart reproduces the Section V-C3
	// mis-estimation discussion.
	CrowdPc float64
	// UseDifficulty routes statement difficulty classes (Section V-D)
	// into the simulated crowd.
	UseDifficulty bool
	// Seed derives per-instance crowd and selector seeds.
	Seed int64
	// Parallelism steps that many books concurrently within each round
	// (books are independent — each owns its joint, selector and crowd
	// stream — so results are bit-identical to a sequential run). 0, the
	// default, uses all CPUs (GOMAXPROCS); 1 forces a sequential run.
	Parallelism int
}

// TracePoint is one point of a quality curve: total tasks asked across all
// instances, summed utility, and overall F1.
type TracePoint struct {
	Round   int
	Cost    int
	Utility float64
	F1      float64
}

// SweepResult is a full quality curve plus the final state.
type SweepResult struct {
	Config SweepConfig
	Trace  []TracePoint
	Final  Metrics
	// Joints holds each instance's refined posterior, parallel to
	// Config.Instances — the input to error analysis.
	Joints []*dist.Joint
}

// bookRun tracks one instance's refinement state between global rounds.
type bookRun struct {
	in    *worlds.Instance
	joint *dist.Joint
	sel   core.Selector
	sim   *crowd.Simulator
	cost  int
	done  bool
}

// RunSweep executes the paper's round-interleaved protocol: every round,
// each book with remaining budget selects and asks up to K tasks; after
// each global round the summed utility and overall F1 are recorded. The
// x-axis cost is the cumulative number of tasks across all books, exactly
// as in Figures 2-4.
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	if len(cfg.Instances) == 0 {
		return nil, ErrInstanceCount
	}
	if cfg.K <= 0 || cfg.Budget <= 0 {
		return nil, fmt.Errorf("eval: K and Budget must be positive (got %d, %d)", cfg.K, cfg.Budget)
	}
	crowdPc := cfg.CrowdPc
	if crowdPc == 0 {
		crowdPc = cfg.Pc
	}

	runs := make([]*bookRun, len(cfg.Instances))
	for i, in := range cfg.Instances {
		seed := cfg.Seed + int64(i)*1009
		sel, err := core.NewSelector(cfg.Selector, seed)
		if err != nil {
			return nil, err
		}
		var sim *crowd.Simulator
		if cfg.UseDifficulty {
			sim, err = in.Simulator(crowdPc, crowd.DefaultDifficulty(), seed)
		} else {
			sim, err = in.UniformSimulator(crowdPc, seed)
		}
		if err != nil {
			return nil, err
		}
		runs[i] = &bookRun{in: in, joint: in.Joint.Clone(), sel: sel, sim: sim}
	}

	res := &SweepResult{Config: cfg}
	totalCost := 0
	for round := 1; ; round++ {
		asked, err := stepAll(runs, cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: round %d: %w", round, err)
		}
		if asked == 0 {
			break
		}
		totalCost += asked
		utility, metrics := snapshot(runs)
		res.Trace = append(res.Trace, TracePoint{
			Round:   round,
			Cost:    totalCost,
			Utility: utility,
			F1:      metrics.F1(),
		})
	}
	_, res.Final = snapshot(runs)
	res.Joints = make([]*dist.Joint, len(runs))
	for i, r := range runs {
		res.Joints[i] = r.joint
	}
	return res, nil
}

// stepAll advances every book by one round across the bounded worker pool
// (cfg.Parallelism workers; 0 = GOMAXPROCS, 1 = sequential). Books are
// fully independent (each owns its joint, selector and crowd stream) and
// every book's result lands at its own index, so the parallel result is
// bit-identical to the sequential one.
func stepAll(runs []*bookRun, cfg SweepConfig) (int, error) {
	counts := make([]int, len(runs))
	errs := make([]error, len(runs))
	parallel.For(cfg.Parallelism, len(runs), func(i int) {
		counts[i], errs[i] = runs[i].step(cfg)
	})
	asked := 0
	for i := range runs {
		if errs[i] != nil {
			return 0, fmt.Errorf("book %s: %w", runs[i].in.ISBN, errs[i])
		}
		asked += counts[i]
	}
	return asked, nil
}

// step runs one round for one book, returning the number of tasks asked.
func (r *bookRun) step(cfg SweepConfig) (int, error) {
	if r.done || r.cost >= cfg.Budget {
		return 0, nil
	}
	k := cfg.K
	if rem := cfg.Budget - r.cost; k > rem {
		k = rem
	}
	if n := r.joint.N(); k > n {
		k = n
	}
	tasks, err := r.sel.Select(r.joint, k, cfg.Pc)
	if err != nil {
		return 0, err
	}
	if len(tasks) == 0 {
		r.done = true
		return 0, nil
	}
	answers := r.sim.Answers(tasks)
	post, err := r.joint.Condition(tasks, answers, cfg.Pc)
	if err != nil {
		return 0, err
	}
	r.joint = post
	r.cost += len(tasks)
	return len(tasks), nil
}

// snapshot sums utility and scores all books' current judgments.
func snapshot(runs []*bookRun) (float64, Metrics) {
	var utility float64
	var total Metrics
	for _, r := range runs {
		utility += -r.joint.Entropy()
		judgments := make([]bool, r.joint.N())
		for i, m := range r.joint.Marginals() {
			judgments[i] = m >= 0.5
		}
		m, err := Score(judgments, r.in.Gold)
		if err != nil {
			// Lengths are construction-time invariants; unreachable.
			panic(err)
		}
		total = total.Add(m)
	}
	return utility, total
}

// PriorQuality scores the machine-only prior (before any crowd work) — the
// zero-cost point of every curve.
func PriorQuality(instances []*worlds.Instance) (float64, Metrics, error) {
	if len(instances) == 0 {
		return 0, Metrics{}, ErrInstanceCount
	}
	var utility float64
	var total Metrics
	for _, in := range instances {
		utility += -in.Joint.Entropy()
		judgments := make([]bool, in.Joint.N())
		for i, m := range in.Joint.Marginals() {
			judgments[i] = m >= 0.5
		}
		m, err := Score(judgments, in.Gold)
		if err != nil {
			return 0, Metrics{}, err
		}
		total = total.Add(m)
	}
	return utility, total, nil
}
