package eval

import (
	"fmt"
	"time"

	"crowdfusion/internal/core"
	"crowdfusion/internal/parallel"
	"crowdfusion/internal/worlds"
)

// TimingConfig describes the Table V experiment: average one-round task
// selection time of each approach, as k grows, over books with many facts.
type TimingConfig struct {
	// Instances are the books to time (the paper uses those with more
	// than 20 facts).
	Instances []*worlds.Instance
	// Ks are the task-set sizes to sweep (the paper uses 1..10).
	Ks []int
	// Selectors are the approaches to compare.
	Selectors []core.SelectorKind
	// Pc is the crowd accuracy assumed during selection.
	Pc float64
	// MaxOptK caps the brute-force selector (the paper stopped at 3;
	// beyond that OPT ran for days). 0 means no OPT at all.
	MaxOptK int
	// Repeats averages each measurement over this many runs (default 1).
	Repeats int
	// Parallelism times that many instances concurrently within each
	// (k, selector) cell. The default (0 or 1) measures sequentially —
	// this is a timing harness, and concurrent selections contend for
	// cores and caches, inflating per-selection wall times. Set > 1 to
	// trade timing fidelity for grid throughput (each Select is still
	// timed individually, so the distortion is contention only).
	Parallelism int
}

// TimingCell is one measured average.
type TimingCell struct {
	K        int
	Selector core.SelectorKind
	Seconds  float64
	Skipped  bool // true when the configuration was excluded (e.g. OPT at large k)
}

// TimingResult is the full Table V grid.
type TimingResult struct {
	Config TimingConfig
	Cells  []TimingCell
}

// Cell returns the measurement for (k, selector).
func (r *TimingResult) Cell(k int, sel core.SelectorKind) (TimingCell, bool) {
	for _, c := range r.Cells {
		if c.K == k && c.Selector == sel {
			return c, true
		}
	}
	return TimingCell{}, false
}

// RunTimings measures average one-round selection times. Selection is run
// against each instance's prior joint; answers are not collected (the
// paper's Table V isolates selection cost). With Parallelism > 1,
// instances within a cell are timed across the bounded worker pool, each
// with its own selector (per-instance seeds), so concurrently measured
// selections never share mutable state.
func RunTimings(cfg TimingConfig) (*TimingResult, error) {
	if len(cfg.Instances) == 0 {
		return nil, ErrInstanceCount
	}
	if len(cfg.Ks) == 0 || len(cfg.Selectors) == 0 {
		return nil, fmt.Errorf("eval: timing sweep needs Ks and Selectors")
	}
	repeats := cfg.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = 1 // sequential by default: timing isolates selection cost
	}
	res := &TimingResult{Config: cfg}
	for _, k := range cfg.Ks {
		for _, kind := range cfg.Selectors {
			if kind == core.SelOPT && (cfg.MaxOptK == 0 || k > cfg.MaxOptK) {
				res.Cells = append(res.Cells, TimingCell{K: k, Selector: kind, Skipped: true})
				continue
			}
			var total time.Duration
			count := 0
			for rep := 0; rep < repeats; rep++ {
				durations := make([]time.Duration, len(cfg.Instances))
				errs := make([]error, len(cfg.Instances))
				parallel.For(workers, len(cfg.Instances), func(i int) {
					sel, err := core.NewSelector(kind, int64(1+i))
					if err != nil {
						errs[i] = err
						return
					}
					start := time.Now()
					_, err = sel.Select(cfg.Instances[i].Joint, k, cfg.Pc)
					durations[i] = time.Since(start)
					errs[i] = err
				})
				for i, err := range errs {
					if err != nil {
						return nil, fmt.Errorf("eval: timing %s k=%d book %s: %w",
							kind, k, cfg.Instances[i].ISBN, err)
					}
					total += durations[i]
					count++
				}
			}
			res.Cells = append(res.Cells, TimingCell{
				K:        k,
				Selector: kind,
				Seconds:  total.Seconds() / float64(count),
			})
		}
	}
	return res, nil
}
