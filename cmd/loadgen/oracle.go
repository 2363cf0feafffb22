package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"crowdfusion/client"
	"crowdfusion/internal/core"
	"crowdfusion/internal/crowd"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/service"
)

// oracleEvery samples the sessions the correctness gate re-runs: every
// 16th session index.
const oracleEvery = 16

// oracleCase is one sampled session and the final state the service
// reported for it.
type oracleCase struct {
	sp  spec
	got client.SessionInfo
}

// oracle is the output-correctness gate: sampled sessions are re-run
// in-process through core.Engine with the same prior, selector, pc, k,
// budget and crowd seed, and the service's final marginals and entropy
// must match bit for bit. The re-runs also time the kernel layer.
type oracle struct {
	mu    sync.Mutex
	cases []oracleCase

	selects, merges samples // core.GreedyPrunePre sweeps; core.MergeAnswers calls
}

// offer keeps the session for re-running when it is sampled. Only fixed
// sessions have an engine counterpart: em sessions condition on learned
// per-worker accuracies.
func (o *oracle) offer(sp spec, got *client.SessionInfo) {
	if sp.index%oracleEvery != 0 || sp.model != service.WorkerModelFixed {
		return
	}
	o.mu.Lock()
	o.cases = append(o.cases, oracleCase{sp: sp, got: *got})
	o.mu.Unlock()
}

// timedSelector times each sweep of the selector it wraps.
type timedSelector struct {
	core.Selector
	s *samples
}

func (t timedSelector) Select(j *dist.Joint, k int, pc float64) ([]int, error) {
	start := time.Now()
	tasks, err := t.Selector.Select(j, k, pc)
	t.s.add(time.Since(start))
	return tasks, err
}

// verify re-runs every offered session and returns how many matched; the
// error names every mismatch.
func (o *oracle) verify(pool *crowd.Pool) (int, error) {
	o.mu.Lock()
	cases := o.cases
	o.mu.Unlock()
	for _, c := range cases {
		if err := o.check(pool, c); err != nil {
			return 0, err
		}
	}
	return len(cases), nil
}

func (o *oracle) check(pool *crowd.Pool, c oracleCase) error {
	prior, err := dist.Independent(c.sp.marginals)
	if err != nil {
		return fmt.Errorf("session %d prior: %w", c.sp.index, err)
	}
	p, err := c.sp.platformFor(pool)
	if err != nil {
		return err
	}
	eng := core.Engine{
		Prior:    prior,
		Selector: timedSelector{Selector: core.NewGreedyPrunePre(), s: &o.selects},
		Crowd:    p,
		Pc:       c.sp.pc,
		K:        c.sp.k,
		Budget:   c.sp.budget,
	}
	want, err := eng.Run()
	if err != nil {
		return fmt.Errorf("session %d oracle run: %w", c.sp.index, err)
	}
	// Replay the rounds through the merge entry point the service calls,
	// timing the conditioning on its own.
	cur := prior
	for _, r := range want.Rounds {
		start := time.Now()
		cur, err = core.MergeAnswers(cur, r.Tasks, r.Answers, c.sp.pc)
		o.merges.add(time.Since(start))
		if err != nil {
			return fmt.Errorf("session %d oracle merge: %w", c.sp.index, err)
		}
	}
	got, wantM := c.got, want.Final.Marginals()
	switch {
	case got.Spent != want.Cost:
		return fmt.Errorf("session %d: service spent %d tasks, engine %d", c.sp.index, got.Spent, want.Cost)
	case len(got.Marginals) != len(wantM):
		return fmt.Errorf("session %d: service has %d marginals, engine %d", c.sp.index, len(got.Marginals), len(wantM))
	case math.Float64bits(got.Entropy) != math.Float64bits(want.Final.Entropy()):
		return fmt.Errorf("session %d: service entropy %v, engine %v", c.sp.index, got.Entropy, want.Final.Entropy())
	}
	for i := range wantM {
		if math.Float64bits(got.Marginals[i]) != math.Float64bits(wantM[i]) {
			return fmt.Errorf("session %d: marginal %d is %v from the service, %v from the engine",
				c.sp.index, i, got.Marginals[i], wantM[i])
		}
	}
	return nil
}
