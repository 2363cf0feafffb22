package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"crowdfusion/client"
	"crowdfusion/internal/service"
	"crowdfusion/internal/store"
)

// closedSUT is a closed-loop workload's system under test: one stack, and
// the data directory of its file store when it has one.
type closedSUT struct {
	st  *stack
	dir string
}

func (s *closedSUT) close() {
	s.st.close()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// refineMem is the paper's loop at the microbenchmark scale with the store
// cost taken out: kernel and session changes move it, store changes should
// not.
var refineMem = &workload{
	name:       "refine-mem",
	why:        "closed loop, memory store, 12-fact priors: the kernel does most of the work, so kernel and session changes show and store changes should not",
	closedLoop: true,
	setup: func(p *pass) (sut, error) {
		st, err := startStack(store.NewMemory(), &p.m, p.traced)
		if err != nil {
			return nil, err
		}
		return &closedSUT{st: st}, ready(p, st)
	},
	drive: func(p *pass, s sut, warm, d time.Duration) error {
		return driveClosed(p, s.(*closedSUT).st, shape{
			facts: 12, pc: 0.8, k: 3, budget: 30, model: service.WorkerModelFixed, form: formArrays,
		}, warm, d)
	},
}

// refineDurable answers one judgment per request over the fsyncing file
// store: four journaled appends per round and a log compaction per session,
// with a kernel cheap enough that store, HTTP and the partial ledger
// dominate. Its budget of 64 makes each session's log reach the default
// compaction threshold.
var refineDurable = &workload{
	name:       "refine-durable",
	why:        "closed loop, fsyncing file store, one judgment per request on 8-fact priors: store, HTTP and the partial ledger dominate, kernel changes should not move it",
	closedLoop: true,
	setup: func(p *pass) (sut, error) {
		dir, err := os.MkdirTemp(p.dir, "durable-")
		if err != nil {
			return nil, err
		}
		fs, err := store.NewFile(dir, 0)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		st, err := startStack(fs, &p.m, p.traced)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		return &closedSUT{st: st, dir: dir}, ready(p, st)
	},
	drive: func(p *pass, s sut, warm, d time.Duration) error {
		return driveClosed(p, s.(*closedSUT).st, shape{
			facts: 8, pc: 0.8, k: 4, budget: 64, model: service.WorkerModelFixed, form: formPartials,
		}, warm, d)
	},
}

// ready waits until the stack answers a request — part of set-up, since a
// user's first request pays for it.
func ready(p *pass, st *stack) error {
	_, err := p.m.call(nil, func() error {
		_, err := st.cl.ListSessions(p.ctx, "", 1)
		return err
	})
	if err != nil {
		return fmt.Errorf("stack not ready: %w", err)
	}
	return nil
}

// driveClosed warms the stack up, then measures it for d.
func driveClosed(p *pass, st *stack, sh shape, warm, d time.Duration) error {
	var next atomic.Int64
	closedPhase(p, st, sh, &next, warm)
	w, err := p.begin(st)
	if err != nil {
		return err
	}
	p.sliced(d, func() { closedPhase(p, st, sh, &next, d) })
	return p.end(w, st)
}

// closedPhase runs nproc clients until the deadline. Each client runs
// sessions back to back — create, rounds until done, final GET, delete —
// so a slower service receives less load. The phase lasts until every
// client has finished its current round.
func closedPhase(p *pass, st *stack, sh shape, next *atomic.Int64, d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && p.ctx.Err() == nil {
				p.refineSession(st, newSpec(p.seed, int(next.Add(1)-1), sh), deadline)
			}
		}()
	}
	wg.Wait()
}

// refineSession drives one session to completion. A session still running
// at the deadline is abandoned; one whose request fails is abandoned too
// (the failure is counted).
func (p *pass) refineSession(st *stack, sp spec, deadline time.Time) {
	crowd, err := sp.platformFor(p.pool)
	if err != nil {
		p.m.violate(err)
		return
	}
	m, cl, ctx := &p.m, st.cl, p.ctx
	start := time.Now()
	var info *client.SessionInfo
	if _, err := m.call(&m.creates, func() (err error) {
		info, err = cl.CreateSession(ctx, sp.request())
		return err
	}); err != nil {
		return
	}
	answer := func(tasks []int) (judgment, error) { return sp.ask(ctx, crowd, tasks) }
	for done := false; !done; {
		if !time.Now().Before(deadline) {
			return
		}
		svc, merged, finished, err := m.round(ctx, cl, info.ID, sp, answer)
		if err != nil {
			return
		}
		if merged {
			m.rounds.add(svc)
		}
		done = finished
	}
	var final *client.SessionInfo
	if _, err := m.call(nil, func() (err error) {
		final, err = cl.GetSession(ctx, info.ID, false)
		return err
	}); err != nil {
		return
	}
	m.sessions.add(time.Since(start))
	p.oracle.offer(sp, final)
	m.call(nil, func() error { return cl.DeleteSession(ctx, info.ID) })
}
