package eval

import (
	"fmt"

	"crowdfusion/internal/core"
	"crowdfusion/internal/crowd"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/parallel"
	"crowdfusion/internal/quality"
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

// bookRun tracks one instance's refinement loop between global rounds.
type bookRun struct {
	in *worlds.Instance
	// foi lists the facts of interest the run is scored on; nil scores
	// all facts.
	foi []int
	run core.Run
	sel core.Selector
	sim *crowd.Simulator
}

// newRun starts book i of cfg.Instances from a clone of its prior, on a
// budget of cfg.Budget, with its own simulated crowd: accuracy cfg.CrowdPc
// (cfg.Pc when 0), statement difficulty when cfg.UseDifficulty is set, and
// seed cfg.Seed + i*1009. It returns that seed too, for the book's selector
// and sampling; the run has no selector yet.
func newRun(cfg SweepConfig, i int) (*bookRun, int64, error) {
	in := cfg.Instances[i]
	seed := cfg.Seed + int64(i)*1009
	crowdPc := cfg.CrowdPc
	if crowdPc == 0 {
		crowdPc = cfg.Pc
	}
	var sim *crowd.Simulator
	var err error
	if cfg.UseDifficulty {
		sim, err = in.Simulator(crowdPc, crowd.DefaultDifficulty(), seed)
	} else {
		sim, err = in.UniformSimulator(crowdPc, seed)
	}
	if err != nil {
		return nil, 0, err
	}
	run := core.Run{Posterior: in.Joint.Clone(), Pc: cfg.Pc, Budget: cfg.Budget}
	return &bookRun{in: in, run: run, sim: sim}, seed, nil
}

// RunSweep executes the paper's round-interleaved protocol: every round,
// each book with remaining budget selects and asks up to K tasks; after
// each global round the summed utility and overall F1 are recorded. The
// x-axis cost is the cumulative number of tasks across all books, exactly
// as in Figures 2-4.
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	runs := make([]*bookRun, len(cfg.Instances))
	for i := range runs {
		r, seed, err := newRun(cfg, i)
		if err != nil {
			return nil, err
		}
		if r.sel, err = core.NewSelector(cfg.Selector, seed); err != nil {
			return nil, err
		}
		runs[i] = r
	}
	trace, final, err := sweep(runs, cfg)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Config: cfg, Trace: trace, Final: final, Joints: make([]*dist.Joint, len(runs))}
	for i, r := range runs {
		res.Joints[i] = r.run.Posterior
	}
	return res, nil
}

// check rejects a sweep without instances or with a non-positive K or
// Budget.
func (cfg SweepConfig) check() error {
	if len(cfg.Instances) == 0 {
		return ErrInstanceCount
	}
	if cfg.K <= 0 || cfg.Budget <= 0 {
		return fmt.Errorf("eval: K and Budget must be positive (got %d, %d)", cfg.K, cfg.Budget)
	}
	return nil
}

// sweep steps the runs round by round until none asks a task, recording
// after each round the cumulative cost, the summed utility and the overall
// F1, and scores the final state. Every quality curve is traced here.
func sweep(runs []*bookRun, cfg SweepConfig) ([]TracePoint, Metrics, error) {
	var trace []TracePoint
	totalCost := 0
	for round := 1; ; round++ {
		asked, err := stepAll(runs, cfg)
		if err != nil {
			return nil, Metrics{}, fmt.Errorf("eval: round %d: %w", round, err)
		}
		if asked == 0 {
			break
		}
		totalCost += asked
		utility, metrics, err := score(runs)
		if err != nil {
			return nil, Metrics{}, err
		}
		trace = append(trace, TracePoint{
			Round:   round,
			Cost:    totalCost,
			Utility: utility,
			F1:      metrics.F1(),
		})
	}
	_, final, err := score(runs)
	return trace, final, err
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
		counts[i], errs[i] = runs[i].step(cfg.K)
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

// step runs one round of up to k tasks for one book, returning the number
// of tasks asked.
func (r *bookRun) step(k int) (int, error) {
	if k = r.run.K(k); k == 0 {
		return 0, nil
	}
	tasks, err := r.run.Select(r.sel, k)
	if err != nil {
		return 0, err
	}
	if len(tasks) == 0 {
		r.run.Done = true
		return 0, nil
	}
	post, err := r.run.Update(tasks, r.sim.Answers(tasks), nil, nil)
	if err != nil {
		return 0, err
	}
	r.run.Commit(post, len(tasks))
	return len(tasks), nil
}

// score is the one scoring rule of every curve: it sums, in run order,
// each run's utility and the confusion matrix of its joint's labels
// (quality.Labels) against gold over its facts. Over all facts the utility
// is -H(F); over facts of interest it is -H(I).
func score(runs []*bookRun) (float64, Metrics, error) {
	var utility float64
	var total Metrics
	for _, r := range runs {
		j := r.run.Posterior
		u, labels, gold := j.Utility(), quality.Labels(j.Marginals()), r.in.Gold
		if r.foi != nil {
			h, err := j.FactEntropy(r.foi)
			if err != nil {
				return 0, Metrics{}, err
			}
			u, labels, gold = -h, pick(labels, r.foi), pick(gold, r.foi)
		}
		m, err := Score(labels, gold)
		if err != nil {
			return 0, Metrics{}, err
		}
		utility += u
		total = total.Add(m)
	}
	return utility, total, nil
}

// pick returns xs[i] for each index i in idx.
func pick(xs []bool, idx []int) []bool {
	out := make([]bool, len(idx))
	for i, x := range idx {
		out[i] = xs[x]
	}
	return out
}

// PriorQuality scores the machine-only prior (before any crowd work) — the
// zero-cost point of every curve.
func PriorQuality(instances []*worlds.Instance) (float64, Metrics, error) {
	if len(instances) == 0 {
		return 0, Metrics{}, ErrInstanceCount
	}
	runs := make([]*bookRun, len(instances))
	for i, in := range instances {
		runs[i] = &bookRun{in: in, run: core.Run{Posterior: in.Joint}}
	}
	return score(runs)
}
