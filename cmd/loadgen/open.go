package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"crowdfusion/client"
	"crowdfusion/internal/platform"
	"crowdfusion/internal/service"
	"crowdfusion/internal/store"
)

// The open loop's operating points, calibrated once on the reference
// machine (README) and fixed: changing them makes a new benchmark. The
// ladder sits near 25/50/75/95% of open-mixed's capacity there (about 1550
// rounds/s, where the queue stopped draining), the measured window runs at
// the second step, and the SLO is about five times the round p99 at r1.
var ladderRates = [4]float64{400, 800, 1150, 1450}

const (
	sloMs     = 20.0      // round_p99_ms limit for a passing ladder step
	lateLimit = sloMs / 4 // ms; a step whose generator ran later than this at p99 cannot pass
	residents = 512       // sessions kept resident
	backlogOK = 0.01      // a passing step ends with at most this share of its arrivals unfinished
	drainCap  = 5 * time.Second

	ladderSettle = 2 * time.Second
	ladderHold   = 8 * time.Second
)

// openSpec is resident session i: 12-fact priors, k cycling through 2, 3,
// 4, and alternating fixed sessions answering with arrays and em sessions
// answering with attributed judgments, so concurrent selects mix (pc, k)
// groups and merges mix the scalar and weighted paths.
func openSpec(seed int64, i int) spec {
	sh := shape{facts: 12, pc: 0.8, k: 2 + i%3, budget: 12, model: service.WorkerModelFixed, form: formArrays}
	if i%2 == 1 {
		sh.model, sh.form = service.WorkerModelEM, formJudgments
	}
	return newSpec(seed, i, sh)
}

// openMixed is the only workload that builds a queue: Poisson arrivals of
// rounds on a large resident set, so GC, cache misses, refits and the
// batcher show as the latency of requests that waited. 512 residents hold
// about 32 MiB of posteriors, far above a 4 MiB L2, while keeping the heap
// a modest tenant of a shared machine.
var openMixed = &workload{
	name:  "open-mixed",
	why:   "open loop of Poisson round arrivals on 512 resident mixed fixed/em sessions: the only queue, with GC, cache, refits and batching under load",
	setup: setupOpen,
	drive: func(p *pass, s sut, warm, d time.Duration) error {
		o := s.(*openSUT)
		rate := ladderRates[1]
		openPhase(p, o, &p.m, rate, warm, 0)
		w, err := p.begin(o.st)
		if err != nil {
			return err
		}
		p.sliced(d, func() { openPhase(p, o, &p.m, rate, d, 1) })
		return p.end(w, o.st)
	},
}

// openSlot is one resident session.
type openSlot struct {
	sp    spec
	id    string
	crowd *platform.Platform
}

// openSUT is the resident set: slots, and which of them are idle (not in
// a round). A slot is read and written only by the worker that took it
// from idle.
type openSUT struct {
	st    *stack
	slots []openSlot

	mu   sync.Mutex
	idle []int
	next int // spec index of the next replacement session
}

func (o *openSUT) close() { o.st.close() }

// take removes a random idle slot.
func (o *openSUT) take(rng *rand.Rand) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	j := rng.IntN(len(o.idle))
	i := o.idle[j]
	o.idle[j] = o.idle[len(o.idle)-1]
	o.idle = o.idle[:len(o.idle)-1]
	return i
}

func (o *openSUT) put(i int) {
	o.mu.Lock()
	o.idle = append(o.idle, i)
	o.mu.Unlock()
}

func setupOpen(p *pass) (sut, error) {
	st, err := startStack(store.NewMemory(), &p.m, p.traced)
	if err != nil {
		return nil, err
	}
	o := &openSUT{st: st, slots: make([]openSlot, residents), next: residents}
	err = forEach(residents, func(i int) (err error) {
		o.slots[i], err = p.createSlot(st.cl, &p.m, openSpec(p.seed, i))
		return err
	})
	if err != nil {
		st.close()
		return nil, fmt.Errorf("creating resident sessions: %w", err)
	}
	for i := range residents {
		o.idle = append(o.idle, i)
	}
	return o, nil
}

func (p *pass) createSlot(cl *client.Client, m *meter, sp spec) (openSlot, error) {
	crowd, err := sp.platformFor(p.pool)
	if err != nil {
		return openSlot{}, err
	}
	var info *client.SessionInfo
	if _, err := m.call(&m.creates, func() (err error) {
		info, err = cl.CreateSession(p.ctx, sp.request())
		return err
	}); err != nil {
		return openSlot{}, err
	}
	return openSlot{sp: sp, id: info.ID, crowd: crowd}, nil
}

// arrivals is a Poisson schedule at rate per second over d: arrival
// offsets drawn from the seed and a per-phase stream, so a seed always
// offers the same load.
func arrivals(seed int64, stream uint64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(uint64(seed), stream))
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// openPhase offers rounds at rate for d: one scheduler releases each
// arrival at its due time and nproc workers serve them, each on a random
// idle session. Rounds are timed from their due time, so a stall charges
// every arrival that queued behind it. The phase ends when the queue has
// drained; arrivals still queued drainCap after the schedule ended are
// dropped and counted as failed.
func openPhase(p *pass, o *openSUT, m *meter, rate float64, d time.Duration, stream uint64) {
	sched := arrivals(p.seed, stream, rate, d)
	// Sized to the schedule so the scheduler never blocks: the queue
	// length is the backlog.
	due := make(chan time.Time, len(sched))
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(due)
		for _, off := range sched {
			at := start.Add(off)
			time.Sleep(time.Until(at))
			m.late.add(time.Since(at))
			due <- at
		}
	}()
	for w := range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(p.seed), stream<<8|uint64(w)))
			for at := range due {
				if time.Since(end) > drainCap || p.ctx.Err() != nil {
					m.attempted.Add(1)
					m.failed.Add(1)
					continue
				}
				p.openRound(o, m, at, rng)
				if time.Now().After(end) {
					m.backlog.Add(1)
				}
			}
		}()
	}
	wg.Wait()
}

// openRound serves one arrival. A session that finished (or failed) is
// deleted and replaced by a fresh one; those requests are offered load
// too, and a finished fixed session is offered to the oracle first.
func (p *pass) openRound(o *openSUT, m *meter, at time.Time, rng *rand.Rand) {
	i := o.take(rng)
	sl := o.slots[i]
	answer := func(tasks []int) (judgment, error) { return sl.sp.ask(p.ctx, sl.crowd, tasks) }
	_, merged, done, err := m.round(p.ctx, o.st.cl, sl.id, sl.sp, answer)
	if merged {
		m.rounds.add(time.Since(at))
	}
	if !done && err == nil {
		o.put(i)
		return
	}
	cl := o.st.cl
	if err == nil && sl.sp.index%oracleEvery == 0 {
		var final *client.SessionInfo
		if _, err := m.call(nil, func() (err error) {
			final, err = cl.GetSession(p.ctx, sl.id, false)
			return err
		}); err == nil {
			p.oracle.offer(sl.sp, final)
		}
	}
	m.call(nil, func() error { return cl.DeleteSession(p.ctx, sl.id) })
	o.mu.Lock()
	next := o.next
	o.next++
	o.mu.Unlock()
	if o.slots[i], err = p.createSlot(cl, m, openSpec(p.seed, next)); err != nil {
		return // the slot stays out of the idle set; the failure is counted
	}
	o.put(i)
}

// runLadder offers each ladder rate in turn — settling, then holding —
// and reports round latency, generator lateness and backlog per step, and
// the highest rate meeting the SLO. A step whose generator ran late never
// counts as passing: if one would have, the ladder fails instead.
func runLadder(p *pass, o *openSUT, r report) error {
	maxRate := 0.0
	for n, rate := range ladderRates {
		var settle, hold meter
		openPhase(p, o, &settle, rate, ladderSettle, uint64(2+2*n))
		openPhase(p, o, &hold, rate, ladderHold, uint64(3+2*n))
		if err := hold.violation(); err != nil {
			return err
		}
		step := fmt.Sprintf("r%d", n+1)
		rounds := hold.rounds.sorted()
		p99, err := percentile(rounds, 990)
		if err != nil {
			return fmt.Errorf("ladder step %s: round latency: %w", step, err)
		}
		late, err := percentile(hold.late.sorted(), 990)
		if err != nil {
			return fmt.Errorf("ladder step %s: generator lateness: %w", step, err)
		}
		arrived := float64(hold.late.len())
		backlog := float64(hold.backlog.Load())
		r[layerName("round_p99_ms")(step)] = value{Value: p99, Unit: "ms", N: len(rounds)}
		r.set(layerName("loadgen.late_ms.p99")(step), late, "ms")
		r.set(layerName("loadgen.backlog_end")(step), backlog, "count")
		r.set(layerName("failed")(step), float64(hold.failed.Load()), "count")
		passed := p99 <= sloMs && hold.failed.Load() == 0 && backlog <= backlogOK*arrived
		if passed && late > lateLimit {
			return fmt.Errorf("harness: ladder step %s (%v rounds/s) met the SLO while the generator ran %.2f ms late at p99", step, rate, late)
		}
		if passed {
			maxRate = rate
		}
	}
	r.set("max_rate_rps", maxRate, "rounds/s")
	return nil
}
