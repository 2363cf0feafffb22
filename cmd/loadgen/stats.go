package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"crowdfusion/internal/service"
)

// minTail is how many samples must lie beyond a reported percentile: fewer
// than that and the percentile is one or two outliers, not a tail.
const minTail = 10

// permilles are the percentiles the benchmark reports, in per mille so the
// rank arithmetic stays exact.
var permilles = []int{999, 990, 950, 900, 500}

// rank is the 1-based nearest-rank index of the pm-per-mille percentile of n
// samples.
func rank(pm, n int) int { return (pm*n + 999) / 1000 }

// supported reports whether n samples leave at least minTail beyond the
// pm-per-mille percentile.
func supported(pm, n int) bool { return n > 0 && n-rank(pm, n) >= minTail }

// percentile returns the pm-per-mille percentile (nearest rank) of sorted,
// or an error when the sample cannot support it — p99 needs 1000 samples.
func percentile(sorted []float64, pm int) (float64, error) {
	if !supported(pm, len(sorted)) {
		return 0, fmt.Errorf("%s needs %d samples beyond it, have %d samples",
			pctName(pm), minTail, len(sorted))
	}
	return sorted[rank(pm, len(sorted))-1], nil
}

// tailPermille is the highest reported percentile n samples support.
func tailPermille(n int) (int, bool) {
	for _, pm := range permilles {
		if supported(pm, n) {
			return pm, true
		}
	}
	return 0, false
}

// pctName renders a per-mille percentile as a metric suffix: p50, p99, p99.9.
func pctName(pm int) string {
	if pm%10 == 0 {
		return fmt.Sprintf("p%d", pm/10)
	}
	return fmt.Sprintf("p%d.%d", pm/10, pm%10)
}

// quartiles returns the first quartile, median and third quartile of
// values by the same method as Python's statistics.quantiles(values, n=4)
// (the exclusive method), so spreads read the same as in that tool.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := slices.Clone(values)
	slices.Sort(d)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// samples collects durations in milliseconds from concurrent recorders.
// Marks cut the window into consecutive slices: a slice holds the samples
// recorded between two marks.
type samples struct {
	mu    sync.Mutex
	v     []float64
	marks []int
}

func (s *samples) add(d time.Duration) { s.addMs(float64(d) / float64(time.Millisecond)) }

func (s *samples) addMs(ms float64) {
	s.mu.Lock()
	s.v = append(s.v, ms)
	s.mu.Unlock()
}

func (s *samples) reset() {
	s.mu.Lock()
	s.v, s.marks = s.v[:0], s.marks[:0]
	s.mu.Unlock()
}

// mark ends the current slice.
func (s *samples) mark() {
	s.mu.Lock()
	s.marks = append(s.marks, len(s.v))
	s.mu.Unlock()
}

// sorted returns a sorted copy of the samples.
func (s *samples) sorted() []float64 {
	s.mu.Lock()
	v := slices.Clone(s.v)
	s.mu.Unlock()
	slices.Sort(v)
	return v
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// groups merges consecutive slices into groups of at least need samples
// (a short last group joins the one before it) and returns each group's
// samples sorted. Without marks, or with fewer than need samples in all,
// the whole window is one group.
func (s *samples) groups(need int) [][]float64 {
	s.mu.Lock()
	v, marks := slices.Clone(s.v), slices.Clone(s.marks)
	s.mu.Unlock()
	var bounds []int // exclusive group ends
	from := 0
	for _, m := range marks {
		if m-from >= need {
			bounds = append(bounds, m)
			from = m
		}
	}
	switch {
	case len(bounds) == 0:
		bounds = []int{len(v)}
	case len(marks) > 0 && marks[len(marks)-1] > bounds[len(bounds)-1]:
		bounds[len(bounds)-1] = marks[len(marks)-1]
	}
	out := make([][]float64, 0, len(bounds))
	from = 0
	for _, b := range bounds {
		g := v[from:b]
		slices.Sort(g)
		out = append(out, g)
		from = b
	}
	return out
}

// need is the smallest sample count that supports the pm-per-mille
// percentile.
func need(pm int) int {
	n := 1
	for !supported(pm, n) {
		n++
	}
	return n
}

// median is the middle of values (the mean of the middle two for an even
// count), or 0 for none.
func median(values []float64) float64 {
	_, med, _ := quartiles(values)
	return med
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// heapSampler records the peak of the live heap (runtime/metrics heap
// objects) sampled every 100ms, which reads without stopping the world: the
// peak over the whole window, and the peak of each slice.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	peak  uint64   // whole window
	cur   uint64   // current slice
	peaks []uint64 // finished slices
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		v := sample[0].Value.Uint64()
		h.mu.Lock()
		h.peak, h.cur = max(h.peak, v), max(h.cur, v)
		h.mu.Unlock()
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// mark ends the current slice.
func (h *heapSampler) mark() {
	h.mu.Lock()
	h.peaks = append(h.peaks, h.cur)
	h.cur = 0
	h.mu.Unlock()
}

// finish stops the sampler and returns the window's peak heap and the
// per-slice peaks, in bytes.
func (h *heapSampler) finish() (uint64, []uint64) {
	close(h.stop)
	<-h.done
	return h.peak, h.peaks
}

// goCounters are the process-wide runtime totals a window takes deltas of.
type goCounters struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNs    uint64
}

func readGo() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goCounters{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// userCPU is the process's CPU time in user mode so far. Kernel time is
// left out: on a shared virtual disk most of it is spent inside fsync and
// grows with other tenants' I/O, not with the service's work.
func userCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("reading the process CPU time: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano())
}

// diskWriteBytes is the process's storage-layer write total from
// /proc/self/io (page-granular, so it shows what an fsynced 100-byte append
// really costs), or 0 where the kernel does not expose it.
func diskWriteBytes() float64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for line := range strings.Lines(string(data)) {
		if v, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			n, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return n
			}
		}
	}
	return 0
}

// scrape reads the server's counters through their Prometheus rendering —
// the exposition every operator sees — keyed by sample name, labels
// included (crowdfusion_select_batch_width_bucket{le="1"}).
func scrape(m *service.Metrics) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf, 0, 0, 0); err != nil {
		return nil, fmt.Errorf("rendering server metrics: %w", err)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("server metric line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
