package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The reference task is the yardstick a round's CPU cost is measured
// against. On a shared host the CPU time the same work takes drifts by tens
// of percent over minutes, as neighbours load the cores, caches and memory
// the machine shares; the drift spans whole runs, so no amount of averaging
// inside a run removes it. Timing a fixed task in the same slices as the
// workload and dividing by it removes most of it, since both meet the same
// contention (on a 2-vCPU VM the ten-seed spread of CPU per round fell from
// 3–16% to 2–9%). The task mixes the work the service does — floating-point
// math like the kernel's, cache misses over a buffer far larger than the L2
// like a large resident set's, and allocation with JSON encoding like the
// HTTP edge's — and is code of the benchmark, so no change to the service
// changes the work it does.

// refEvery is how often the reference task runs while a window is
// measured: each slice's reference is the median of the readings taken
// across it, not one reading at its edge.
const refEvery = 250 * time.Millisecond

// refSampler runs the reference task every refEvery on an OS thread of its
// own while a window is measured.
type refSampler struct {
	stop, done chan struct{}
	used       atomic.Int64 // CPU time the sampler's thread has spent, ns

	mu       sync.Mutex
	readings []time.Duration // since the last mark
	last     time.Duration   // the last slice's reference
}

func startRefSampler() (*refSampler, error) {
	buf, err := refBuffer()
	if err != nil {
		return nil, err
	}
	r := &refSampler{stop: make(chan struct{}), done: make(chan struct{})}
	started := make(chan struct{})
	go func() {
		defer close(r.done)
		runtime.LockOSThread() // never unlocked: the thread exits with the goroutine
		base := threadCPU()
		close(started)
		t := time.NewTicker(refEvery)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				r.used.Store(int64(threadCPU() - base))
				return
			case <-t.C:
				d := refTask(buf)
				r.mu.Lock()
				r.readings = append(r.readings, d)
				r.mu.Unlock()
				r.used.Store(int64(threadCPU() - base))
			}
		}
	}()
	<-started
	return r, nil
}

// mark ends the current slice and returns its reference: the median of
// its readings, or the last slice's when it had none.
func (r *refSampler) mark() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.readings) > 0 {
		ms := make([]float64, len(r.readings))
		for i, d := range r.readings {
			ms[i] = float64(d)
		}
		r.last = time.Duration(median(ms))
		r.readings = r.readings[:0]
	}
	return r.last
}

// finish stops the sampler.
func (r *refSampler) finish() {
	close(r.stop)
	<-r.done
}

const refBufBytes = 32 << 20

// refBuffer is the random-read part's working set, made once per process.
// It is mapped outside the Go heap so it does not count toward
// heap_peak_mb.
var refBuffer = sync.OnceValues(func() ([]uint64, error) {
	mem, err := syscall.Mmap(-1, 0, refBufBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference task's buffer: %w", err)
	}
	buf := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refBufBytes/8)
	for i := range buf {
		buf[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return buf, nil
})

// refDoc is what the JSON part encodes and decodes.
type refDoc struct {
	ID      string             `json:"id"`
	Values  []float64          `json:"values"`
	Workers map[string]float64 `json:"workers"`
	Tasks   []int              `json:"tasks"`
}

// refSink keeps the reference task's results live so the compiler cannot
// drop the work.
var refSink float64

// refTask runs the reference task once, 3.5–3.9 ms of CPU on the reference
// machine, over buf, and returns the CPU time it took. The caller's
// goroutine must be locked to its OS thread.
func refTask(buf []uint64) time.Duration {
	start := threadCPU()

	x := 0.0
	for i := 1; i <= 30_000; i++ {
		x += math.Log(float64(i)) * math.Exp(-float64(i%50)/10)
	}

	idx, sum := uint64(12345), uint64(0)
	for range 50_000 {
		idx = idx*6364136223846793005 + 1442695040888963407
		sum += buf[(idx>>20)%uint64(len(buf))]
	}

	doc := refDoc{ID: "reference", Values: make([]float64, 64), Workers: map[string]float64{}, Tasks: make([]int, 32)}
	for i := range doc.Values {
		doc.Values[i] = float64(i) / 7
	}
	for i := range 12 {
		doc.Workers[string(rune('a'+i))] = float64(i) / 12
	}
	for range 20 {
		data, err := json.Marshal(doc)
		if err != nil {
			panic(err) // a fixed struct of strings, numbers and maps always encodes
		}
		var back refDoc
		if err := json.Unmarshal(data, &back); err != nil {
			panic(err)
		}
		x += back.Values[1]
	}

	refSink = x + float64(sum)
	return threadCPU() - start
}

// threadCPU is the calling thread's CPU time, read precisely (getrusage
// advances only at scheduler ticks).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("reading the thread CPU clock: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
