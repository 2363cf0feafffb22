package eval

import (
	"fmt"
	"math/rand"

	"crowdfusion/internal/core"
	"crowdfusion/internal/worlds"
)

// Query-based evaluation (Section IV): when users care about only a subset
// of facts, the query-based selector should reach a given quality on those
// facts with fewer tasks than the general selector — "if we are not
// interested in all aspects, we can get higher accuracy by asking fewer
// tasks".

// QuerySweepConfig configures the facts-of-interest comparison.
type QuerySweepConfig struct {
	Instances []*worlds.Instance
	// FOIFraction is the fraction of each book's facts sampled as the
	// facts of interest (at least one).
	FOIFraction float64
	// UseQuerySelector switches between the Section IV selector and the
	// general greedy selector evaluated on the same FOI metric.
	UseQuerySelector bool
	K                int
	Budget           int
	Pc               float64
	Seed             int64
}

// QuerySweepResult is the FOI-restricted quality curve.
type QuerySweepResult struct {
	Config QuerySweepConfig
	Trace  []TracePoint // Cost vs FOI-F1 and FOI utility (-H(I))
	Final  Metrics      // confusion over facts of interest only
}

// RunQuerySweep refines every instance with either the query-based or the
// general selector and scores only the facts of interest. The runs step
// and are traced through RunSweep's loop, books in parallel.
func RunQuerySweep(cfg QuerySweepConfig) (*QuerySweepResult, error) {
	sweepCfg := SweepConfig{Instances: cfg.Instances, K: cfg.K, Budget: cfg.Budget, Pc: cfg.Pc, Seed: cfg.Seed}
	if err := sweepCfg.check(); err != nil {
		return nil, err
	}
	if cfg.FOIFraction <= 0 || cfg.FOIFraction > 1 {
		return nil, fmt.Errorf("eval: FOIFraction must be in (0, 1]")
	}
	runs := make([]*bookRun, len(cfg.Instances))
	for i, in := range cfg.Instances {
		r, seed, err := newRun(sweepCfg, i)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		nFOI := int(cfg.FOIFraction * float64(in.N()))
		if nFOI < 1 {
			nFOI = 1
		}
		if max := core.MaxTasksPerRound; nFOI > max {
			nFOI = max
		}
		r.foi = rng.Perm(in.N())[:nFOI]
		if cfg.UseQuerySelector {
			r.sel = &core.QueryGreedySelector{FOI: r.foi}
		} else {
			r.sel = core.NewGreedyPrune()
		}
		runs[i] = r
	}
	trace, final, err := sweep(runs, sweepCfg)
	if err != nil {
		return nil, err
	}
	return &QuerySweepResult{Config: cfg, Trace: trace, Final: final}, nil
}
