package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"crowdfusion/internal/crowd"
)

// value is one reported metric. N, the sample count behind a percentile,
// is printed with the metric but is not part of the JSON result.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// report maps metric names to values.
type report map[string]value

func (r report) set(name string, v float64, unit string) { r[name] = value{Value: v, Unit: unit} }

// pcts reports the wanted percentiles (per mille) of sorted, in ms, under
// the names name(p50), name(p99)…. A tail the sample cannot support is
// reported at the highest percentile it can, under that percentile's name.
func (r report) pcts(name func(pct string) string, sorted []float64, wanted ...int) {
	for _, pm := range wanted {
		if !supported(pm, len(sorted)) {
			tail, ok := tailPermille(len(sorted))
			if !ok || tail <= 500 {
				continue
			}
			pm = tail
		}
		v, _ := percentile(sorted, pm) // supported was checked above
		r[name(pctName(pm))] = value{Value: v, Unit: "ms", N: len(sorted)}
	}
}

// e2eName and layerName spell percentile metrics in the two naming
// schemes: select_p99_ms for end-to-end metrics, store.append_ms.p99 for
// per-layer ones.
func e2eName(base string) func(string) string {
	return func(p string) string { return base + "_" + p + "_ms" }
}

func layerName(base string) func(string) string {
	return func(p string) string { return base + "." + p }
}

// pass is one run of a workload: set-up, warm-up and a measured window,
// untraced or traced. A trace-mode run makes an untraced and a traced pass.
type pass struct {
	ctx    context.Context
	seed   int64
	dir    string // the run's directory for data directories
	traced bool
	pool   *crowd.Pool
	m      meter
	oracle oracle

	// Totals over the measured window.
	elapsed   time.Duration      // recover: the reps' measured time
	server    map[string]float64 // server counter deltas
	spans     spanSet
	dropped   int
	heapPeak  uint64
	heapPeaks []uint64      // per slice
	slices    []slicePoint  // where the window was cut
	goc       goCounters    // runtime deltas
	disk      float64       // storage-layer bytes written
	skipped   goCounters    // runtime deltas of untimed steps inside the window
	skipDisk  float64       // disk bytes of untimed steps inside the window
	skipCPU   time.Duration // workload CPU time of untimed steps inside the window
	recovers  []float64     // recover: seconds from boot until every session was adopted
	win       *window
}

// slicePoint is the end of one slice of the measured window: the measured
// time, the workload's CPU time and the committed rounds so far, and the
// reference task's CPU time during the slice.
type slicePoint struct {
	elapsed time.Duration
	cpu     time.Duration
	rounds  int64
	ref     time.Duration
}

// sliceEvery is how often a continuous window is cut. The end-to-end
// metrics are medians over slices, so a few seconds of interference from
// outside the process move them less than they move a whole-window figure.
const sliceEvery = time.Second

func newPass(ctx context.Context, seed int64, dir string, traced bool) (*pass, error) {
	pool, err := crowdPool()
	if err != nil {
		return nil, fmt.Errorf("crowd pool: %w", err)
	}
	return &pass{ctx: ctx, seed: seed, dir: dir, traced: traced, pool: pool,
		server: map[string]float64{}, spans: spanSet{}}, nil
}

// window is the process-wide state when a measured window began.
type window struct {
	start time.Time
	cpu   time.Duration
	goc   goCounters
	disk  float64
	heap  *heapSampler
	ref   *refSampler
	base  map[string]float64 // server counters, when one stack serves the window
}

// begin starts the measured window: the meter forgets warm-up traffic and
// the runtime, disk and server totals are read. st is nil when the window
// spans several stacks (each reports through addStack).
func (p *pass) begin(st *stack) (*window, error) {
	p.m.reset()
	p.server, p.spans, p.slices = map[string]float64{}, spanSet{}, nil
	p.skipped, p.skipDisk, p.skipCPU = goCounters{}, 0, 0
	ref, err := startRefSampler()
	if err != nil {
		return nil, err
	}
	w := &window{start: time.Now(), goc: readGo(), disk: diskWriteBytes(), heap: startHeapSampler(), ref: ref}
	p.win = w
	w.cpu = p.workCPU()
	if st != nil {
		base, err := scrape(st.svc.Metrics())
		if err != nil {
			w.heap.finish()
			w.ref.finish()
			return nil, err
		}
		w.base = base
	}
	return w, nil
}

// end closes the measured window begun by begin.
func (p *pass) end(w *window, st *stack) error {
	p.heapPeak, p.heapPeaks = w.heap.finish()
	w.ref.finish()
	g := readGo()
	p.goc.allocBytes += g.allocBytes - w.goc.allocBytes - p.skipped.allocBytes
	p.goc.gcCycles += g.gcCycles - w.goc.gcCycles - p.skipped.gcCycles
	p.goc.pauseNs += g.pauseNs - w.goc.pauseNs - p.skipped.pauseNs
	p.disk += diskWriteBytes() - w.disk - p.skipDisk
	if st == nil {
		return nil
	}
	return p.addStack(st, w.base, w.start)
}

// untimed runs f — a step inside the measured window that is not part of
// the workload, such as copying a data directory — and keeps its CPU time,
// allocations, GC work and disk writes out of the window's totals.
func (p *pass) untimed(f func() error) error {
	g, disk, cpu := readGo(), diskWriteBytes(), p.workCPU()
	err := f()
	p.skipCPU += p.workCPU() - cpu
	after := readGo()
	p.skipped.allocBytes += after.allocBytes - g.allocBytes
	p.skipped.gcCycles += after.gcCycles - g.gcCycles
	p.skipped.pauseNs += after.pauseNs - g.pauseNs
	p.skipDisk += diskWriteBytes() - disk
	return err
}

// cut ends the current slice of the window at the given measured time.
func (p *pass) cut(elapsed time.Duration) {
	p.m.mark()
	p.win.heap.mark()
	p.slices = append(p.slices, slicePoint{elapsed: elapsed, cpu: p.workCPU() - p.win.cpu - p.skipCPU,
		rounds: p.m.roundsDone.Load(), ref: p.win.ref.mark()})
}

// workCPU is the process's user-mode CPU time less what the window's
// reference sampler has spent.
func (p *pass) workCPU() time.Duration {
	cpu := userCPU()
	if p.win != nil {
		cpu -= time.Duration(p.win.ref.used.Load())
	}
	return cpu
}

// sliced runs phase, one continuous measured phase of length d, and cuts
// the window at every multiple of sliceEvery up to d, waiting for the last
// cut even when the phase ends a little early (an open loop's last arrival
// can finish before d). Requests still finishing after d belong to no
// slice.
func (p *pass) sliced(d time.Duration, phase func()) {
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := time.Duration(1); n*sliceEvery <= d; n++ {
			time.Sleep(time.Until(start.Add(n * sliceEvery)))
			p.cut(time.Since(start))
		}
	}()
	phase()
	<-done
}

// sliceRates is the committed-round rate of each slice.
func (p *pass) sliceRates() []float64 {
	var out []float64
	var prev slicePoint
	for _, s := range p.slices {
		if d := s.elapsed - prev.elapsed; d > 0 {
			out = append(out, float64(s.rounds-prev.rounds)/d.Seconds())
		}
		prev = s
	}
	return out
}

// sliceCosts is, for each slice that committed rounds, the workload's CPU
// time per round in ms, and that cost in multiples of the slice's
// reference, for slices that have one.
func (p *pass) sliceCosts() (ms, refs []float64) {
	var prev slicePoint
	for _, s := range p.slices {
		if n := s.rounds - prev.rounds; n > 0 {
			perRound := (s.cpu - prev.cpu) / time.Duration(n)
			ms = append(ms, float64(perRound)/float64(time.Millisecond))
			if s.ref > 0 {
				refs = append(refs, float64(perRound)/float64(s.ref))
			}
		}
		prev = s
	}
	return ms, refs
}

// slicedPcts reports, for each wanted percentile, the median over groups of
// slices holding enough samples to support it. A sample too small for
// that is reported like pcts does.
func (r report) slicedPcts(name func(pct string) string, s *samples, wanted ...int) {
	n := s.len()
	for _, pm := range wanted {
		groups := s.groups(need(pm))
		if len(groups) == 1 {
			r.pcts(name, groups[0], pm)
			continue
		}
		vals := make([]float64, len(groups))
		for i, g := range groups {
			vals[i], _ = percentile(g, pm) // each group holds need(pm) samples
		}
		r[name(pctName(pm))] = value{Value: median(vals), Unit: "ms", N: n}
	}
}

// addStack adds a stack's server counters (less base) and the spans it
// recorded since the given time.
func (p *pass) addStack(st *stack, base map[string]float64, since time.Time) error {
	now, err := scrape(st.svc.Metrics())
	if err != nil {
		return err
	}
	for k, v := range now {
		p.server[k] += v - base[k]
	}
	if st.rec != nil {
		snap := st.rec.Snapshot()
		p.dropped += droppedSpans(snap, recorderLimit)
		p.spans.add(snap.Recent, since)
	}
	return nil
}

// meanRoundMs is the mean round latency of the window, the basis of the
// tracing-overhead comparison.
func (p *pass) meanRoundMs() float64 { return mean(p.m.rounds.sorted()) }

// report computes every metric the pass measured. Metrics whose layer the
// workload never exercised are left out.
func (p *pass) report() report {
	r := report{}
	m := &p.m
	rounds := float64(m.roundsDone.Load())
	if rates := p.sliceRates(); len(rates) > 0 {
		r.set("rounds_per_s", median(rates), "1/s")
	}
	ms, refs := p.sliceCosts()
	if len(ms) > 0 {
		r.set("cpu_ms_per_round", median(ms), "ms")
	}
	if len(refs) > 0 {
		r.set("round_cpu_ref", median(refs), "ref")
	}
	r.slicedPcts(e2eName("round"), &m.rounds, 500, 990)
	r.slicedPcts(e2eName("select"), &m.selects, 500, 990)
	r.slicedPcts(e2eName("answer"), &m.answers, 500, 990)
	r.pcts(e2eName("session"), m.sessions.sorted(), 500)
	r.pcts(e2eName("adopt"), m.adopts.sorted(), 500, 990)
	if len(p.recovers) > 0 {
		r.set("recover_s", median(p.recovers), "s")
	}
	if len(p.heapPeaks) > 0 {
		peaks := make([]float64, len(p.heapPeaks))
		for i, b := range p.heapPeaks {
			peaks[i] = float64(b) / (1 << 20)
		}
		r.set("heap_peak_mb", median(peaks), "MiB")
	}
	r.set("heap_max_mb", float64(p.heapPeak)/(1<<20), "MiB")
	if att := m.attempted.Load(); att > 0 {
		r.set("failed_frac", float64(m.failed.Load())/float64(att), "ratio")
	}

	// Per-layer: spans (traced passes only).
	for _, s := range []struct {
		span, metric string
		self         bool
		wanted       []int
	}{
		{"client.attempt", "client.self_ms", true, []int{500}},
		{"POST /v1/sessions/{id}/select", "server.select.self_ms", true, []int{500}},
		{"POST /v1/sessions/{id}/answers", "server.answers.self_ms", true, []int{500}},
		{"session.select", "session.select.self_ms", true, []int{500, 990}},
		{"session.merge", "session.merge.self_ms", true, []int{500, 990}},
		{"session.adopt", "manager.adopt_ms", false, []int{500, 990}},
	} {
		if a := p.spans[s.span]; a != nil {
			v := a.dur
			if s.self {
				v = a.self
			}
			v = slices.Clone(v)
			slices.Sort(v)
			r.pcts(layerName(s.metric), v, s.wanted...)
		}
	}

	// Per-layer: server counters.
	sc := p.server
	r.set("server.gate_rejected", sc["crowdfusion_requests_rejected_total"], "count")
	if served := sc["crowdfusion_selects_served_total"]; served > 0 {
		r.set("server.select_cache_hit_ratio", sc["crowdfusion_select_cache_hits_total"]/served, "ratio")
	}
	if merges := sc["crowdfusion_merges_applied_total"]; merges > 0 {
		r.set("session.partials_per_round", float64(m.submissions.Load())/merges, "count")
	}
	if sweeps := sc["crowdfusion_select_batch_width_sum"]; sweeps > 0 {
		dispatches := sc["crowdfusion_select_batch_width_count"]
		r.set("batch.width_mean", sweeps/dispatches, "count")
		r.set("batch.batched_frac", (sweeps-sc[`crowdfusion_select_batch_width_bucket{le="1"}`])/sweeps, "ratio")
	}
	if refits := sc["crowdfusion_worker_refits_total"]; refits > 0 {
		r.set("crowd.refits", refits, "count")
		r.set("crowd.refit_ms.mean", 1000*sc["crowdfusion_refit_duration_seconds_sum"]/sc["crowdfusion_refit_duration_seconds_count"], "ms")
	}

	// Per-layer: the benchmark's own wrappers.
	r.pcts(layerName("core.select_ms"), p.oracle.selects.sorted(), 500)
	r.pcts(layerName("core.merge_ms"), p.oracle.merges.sorted(), 500)
	r.pcts(layerName("manager.create_ms"), m.creates.sorted(), 500)
	r.pcts(layerName("store.append_ms"), m.storeAppend.sorted(), 500, 990)
	r.pcts(layerName("store.put_ms"), m.storePut.sorted(), 500)
	r.pcts(layerName("store.get_ms"), m.storeGet.sorted(), 500)
	if rounds > 0 {
		r.set("store.appends_per_round", float64(m.storeAppend.len())/rounds, "count")
		r.set("store.puts_per_round", float64(m.storePut.len())/rounds, "count")
		if p.disk > 0 {
			r.set("store.disk_bytes_per_round", p.disk/rounds, "bytes")
		}
		r.set("go.alloc_bytes_per_round", float64(p.goc.allocBytes)/rounds, "bytes")
	}
	r.set("go.gc_cycles", float64(p.goc.gcCycles), "count")
	r.set("go.gc_pause_ms.sum", float64(p.goc.pauseNs)/1e6, "ms")
	if late := m.late.sorted(); len(late) > 0 {
		r.pcts(layerName("loadgen.late_ms"), late, 990)
		r.set("loadgen.backlog_end", float64(m.backlog.Load()), "count")
	}
	return r
}

// failure reasons a pass cannot report numbers: correctness violations
// and the harness's own self-checks.
func (p *pass) failure(closedLoop bool) error {
	errs := []error{p.m.violation()}
	if p.dropped > 0 {
		errs = append(errs, fmt.Errorf("harness: the span recorder dropped %d spans", p.dropped))
	}
	if hits := p.server["crowdfusion_select_cache_hits_total"]; closedLoop && hits > 0 {
		errs = append(errs, fmt.Errorf("harness: %v selects were served from the select cache; a closed loop must never measure it", hits))
	}
	return errors.Join(errs...)
}
