// Command benchdiff compares two benchjson documents — a committed
// baseline and a fresh run — and fails (exit 1) when any benchmark's
// ns/op or B/op regressed beyond the threshold, or when a baseline
// benchmark vanished from the fresh run. This is the perf ratchet: CI runs
// `make bench-diff`, so a change that slows the selection kernel or the
// serving path past the noise floor cannot land silently.
//
//	benchdiff -baseline BENCH_selection.json -current BENCH_fresh.json \
//	    -threshold 0.10 -allow 'Reference|HTTP' -lenient-cpu -out BENCH_diff.txt
//
// Two defenses keep the gate from flaking on shared machines. First,
// both documents are reduced to the minimum ns/op per benchmark — the
// Makefile runs the suite several times over and min-vs-min filters
// the one-sided noise (preemption, cache pollution) a single shot is
// exposed to.
// Second, the run-wide drift — the median delta across all measured
// benchmarks, i.e. the uniform shift the machine's thermal/contention
// state applies to everything — is divided out before gating, so only a
// benchmark that moved against the pack can fail.
//
// Next to each delta the report prints both sides' own spread across
// their passes (max/min - 1), so a delta can be read against the noise
// the benchmark showed on each side. The spread is reported, never gated.
//
// Benchmarks matching the -allow regex still appear in the report but
// only ever warn — the escape hatch for entries dominated by scheduler or
// I/O noise. -lenient-cpu downgrades every ns/op failure to a warning
// when the two documents were measured on different CPU models: a
// committed baseline crosses machines, and cross-machine ns/op is trend
// data, not a gate.
//
// B/op is gated too, on its minimum across passes, with no drift
// correction and no CPU leniency: how much a benchmark allocates does
// not depend on the machine's state or CPU model, so across passes it
// holds within a few percent where ns/op does not. A growth of fewer
// than bytesSlack bytes per op never fails, so a benchmark that
// allocates next to nothing cannot fail on a pool refilled after a GC. Allowlisted benchmarks only
// warn, as for ns/op.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
)

// Result mirrors cmd/benchjson's per-benchmark measurement; only the
// fields the diff consumes are declared.
type Result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Report mirrors cmd/benchjson's document shape.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// Finding is one comparison outcome, ordered worst-first in the report.
type Finding struct {
	Name       string
	Base       float64 // baseline ns/op
	Cur        float64 // current ns/op, 0 when missing
	Delta      float64 // (cur-base)/base, +0.25 = 25% slower
	Adj        float64 // Delta with the run-wide drift divided out; what the gate uses
	BaseSpread float64 // baseline's own max/min - 1 across its passes; never gated
	CurSpread  float64 // the same for the current run
	BaseBytes  float64 // baseline's least B/op across its passes
	CurBytes   float64 // the same for the current run
	BytesGrew  bool    // B/op grew past the threshold and bytesSlack
	Missing    bool    // in the baseline, absent from the current run
	Fails      bool    // counts against the exit status
	Allowed    bool    // matched the allowlist: warn, never fail
	Lenient    bool    // an ns/op failure downgraded by a CPU mismatch
}

// key identifies a benchmark across documents: package-qualified name, so
// same-named benchmarks in different packages never collide.
func key(r Result) string {
	if r.Package == "" {
		return r.Name
	}
	return r.Package + "." + r.Name
}

// passes is one benchmark's ns/op range and least B/op across a
// document's passes.
type passes struct{ min, max, bytes float64 }

// spread is max/min - 1: how far the slowest pass sat above the fastest.
func (p passes) spread() float64 { return p.max/p.min - 1 }

// collapse reduces a report to the ns/op range per benchmark, in first-
// appearance order. The suite is run several times over and the gate
// compares minima: the minimum is the least noise-contaminated sample a
// run produced (scheduler preemption and cache pollution only ever slow
// an iteration down), so min-vs-min is far stabler than any single shot.
// The maximum only feeds the reported spread. B/op is reduced to its
// minimum the same way.
func collapse(r *Report) (order []string, ns map[string]passes) {
	ns = make(map[string]passes, len(r.Results))
	for _, res := range r.Results {
		if res.NsPerOp <= 0 {
			continue // nothing to ratchet against
		}
		k := key(res)
		p, ok := ns[k]
		if !ok {
			order = append(order, k)
			p = passes{res.NsPerOp, res.NsPerOp, res.BytesPerOp}
		}
		p.min, p.max = min(p.min, res.NsPerOp), max(p.max, res.NsPerOp)
		p.bytes = min(p.bytes, res.BytesPerOp)
		ns[k] = p
	}
	return order, ns
}

// bytesSlack is the B/op growth below which the allocation gate never
// fails, whatever the relative growth. A pooled scratch refilled after a
// GC is amortized over a pass's iterations, which moves a small figure
// by up to about 100 B between passes (BenchmarkServiceSelect read 448 to
// 525 B/op over three).
const bytesSlack = 256

// bytesGrew reports whether B/op grew from base to cur by more than the
// threshold and by at least bytesSlack.
func bytesGrew(base, cur, threshold float64) bool {
	return cur-base >= bytesSlack && cur > base*(1+threshold)
}

// driftFloor is the measured-entry count below which drift correction is
// skipped: a median over a handful of benchmarks is itself noise.
const driftFloor = 8

// drift estimates the run-wide multiplicative shift between the two
// documents as the median delta across measured entries. A committed
// baseline is compared against runs made later, on a machine in a
// different thermal/contention state; that state shifts EVERY benchmark
// by roughly the same factor, and gating raw deltas against it flakes.
// A genuine regression moves one benchmark against the pack, so the
// gate divides the pack's shift out first. The tradeoff is explicit: a
// change that slows most of the suite at once reads as drift — the
// report still shows every raw delta, so it is visible, just not
// gating.
func drift(fs []Finding) (float64, bool) {
	var ds []float64
	for _, f := range fs {
		if !f.Missing {
			ds = append(ds, f.Delta)
		}
	}
	if len(ds) < driftFloor {
		return 0, false
	}
	sort.Float64s(ds)
	m := ds[len(ds)/2]
	if len(ds)%2 == 0 {
		m = (ds[len(ds)/2-1] + ds[len(ds)/2]) / 2
	}
	return m, true
}

// compare diffs current against baseline, minimum ns/op per benchmark on
// both sides, drift-corrected, and minimum B/op, as measured. allow may
// be nil (empty allowlist); lenient downgrades every ns/op failure to a
// warning, but no B/op failure. The returned shift is the drift the gate
// divided out (0 when too few entries to estimate).
func compare(baseline, current *Report, threshold float64, allow *regexp.Regexp, lenient bool) (findings []Finding, shift float64) {
	baseOrder, base := collapse(baseline)
	_, cur := collapse(current)
	var out []Finding
	for _, name := range baseOrder {
		f := Finding{Name: name, Base: base[name].min, BaseSpread: base[name].spread()}
		f.Allowed = allow != nil && allow.MatchString(f.Name)
		c, ok := cur[name]
		if !ok {
			f.Missing = true
		} else {
			f.Cur, f.CurSpread = c.min, c.spread()
			f.Delta = (f.Cur - f.Base) / f.Base
			f.BaseBytes, f.CurBytes = base[name].bytes, c.bytes
			f.BytesGrew = bytesGrew(f.BaseBytes, f.CurBytes, threshold)
		}
		out = append(out, f)
	}
	shift, _ = drift(out)
	for i := range out {
		f := &out[i]
		if f.Missing {
			f.Fails = !f.Allowed
		} else {
			f.Adj = (1+f.Delta)/(1+shift) - 1
			f.Fails = f.Adj > threshold && !f.Allowed
		}
		if f.Fails && lenient {
			f.Fails = false
			f.Lenient = true
		}
		if f.BytesGrew && !f.Allowed {
			f.Fails = true
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Missing != out[j].Missing {
			return out[i].Missing
		}
		if out[i].Adj != out[j].Adj {
			return out[i].Adj > out[j].Adj
		}
		return out[i].Name < out[j].Name
	})
	return out, shift
}

// render writes the human-readable report and returns whether any finding
// fails the gate.
func render(w io.Writer, findings []Finding, threshold, shift float64, cpuMismatch bool) bool {
	failed := false
	if cpuMismatch {
		fmt.Fprintf(w, "note: baseline and current were measured on different CPUs\n")
	}
	if shift != 0 {
		fmt.Fprintf(w, "note: run-wide drift %+.1f%% (median delta) divided out before gating\n", 100*shift)
	}
	for _, f := range findings {
		status := "ok"
		switch {
		case f.Fails:
			status = "FAIL"
			failed = true
		case f.Missing, f.Adj > threshold, f.BytesGrew:
			status = "warn"
		}
		if f.Missing {
			fmt.Fprintf(w, "%-4s %-70s %12.0f ns/op -> MISSING\n", status, f.Name, f.Base)
			continue
		}
		grew := ""
		if f.BytesGrew {
			grew = "  B/op grew"
		}
		fmt.Fprintf(w, "%-4s %-70s %12.0f ns/op -> %12.0f ns/op  %+6.1f%% (%+6.1f%% adj)  spread %5.1f%% -> %5.1f%%  %10.0f B/op -> %10.0f B/op%s\n",
			status, f.Name, f.Base, f.Cur, 100*f.Delta, 100*f.Adj, 100*f.BaseSpread, 100*f.CurSpread,
			f.BaseBytes, f.CurBytes, grew)
	}
	return failed
}

func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_selection.json", "committed baseline benchjson document")
	currentPath := fs.String("current", "BENCH_fresh.json", "fresh benchjson document to gate")
	threshold := fs.Float64("threshold", 0.10, "relative ns/op or B/op regression that fails the gate")
	allowExpr := fs.String("allow", "", "regex of benchmark names that warn instead of failing")
	lenientCPU := fs.Bool("lenient-cpu", false, "downgrade ns/op failures to warnings when the CPU models differ")
	outPath := fs.String("out", "", "also write the report to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var allow *regexp.Regexp
	if *allowExpr != "" {
		var err error
		if allow, err = regexp.Compile(*allowExpr); err != nil {
			fmt.Fprintln(stderr, "benchdiff: bad -allow:", err)
			return 2
		}
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	current, err := load(*currentPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	cpuMismatch := baseline.CPU != current.CPU
	lenient := *lenientCPU && cpuMismatch
	findings, shift := compare(baseline, current, *threshold, allow, lenient)

	var report strings.Builder
	failed := render(&report, findings, *threshold, shift, cpuMismatch)
	fmt.Fprint(stdout, report.String())
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(report.String()), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
	}
	if failed {
		fmt.Fprintf(stderr, "benchdiff: ns/op or B/op regression beyond %.0f%% (see report)\n", *threshold*100)
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
