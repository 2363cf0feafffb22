// Command loadgen is the end-to-end benchmark of the crowdfusion refinement
// service. In one process it starts the service on a loopback listener,
// drives full select–ask–merge rounds through the public client package,
// checks the outputs against an in-process oracle, and prints every metric
// by name with its unit.
//
//	loadgen [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-ladder] [-out file]
//	loadgen compare [-bench BENCHMARK.json] [-verdict] A.json… -- B.json…
//
// Untraced runs report the end-to-end metrics; -trace 1 runs the workload
// untraced and then traced for half the time each and reports the
// per-layer breakdown from the traced half. The last line of standard
// output is the JSON result. See README.md for the metric catalogue.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"
)

// workload is one traffic mix. setup builds a ready system under test (the
// benchmark times it as setup_s); drive warms it up for warm, unmeasured,
// then measures it for d.
type workload struct {
	name, why  string
	closedLoop bool // the select cache must stay cold
	setup      func(p *pass) (sut, error)
	drive      func(p *pass, s sut, warm, d time.Duration) error
}

// sut is a workload's system under test.
type sut interface{ close() }

var workloads = []*workload{refineMem, refineDurable, openMixed, recoverWL}

// The metrics BENCHMARK.json declares: every workload reports each of them,
// untraced for endToEnd and traced for perLayer. Everything else a run
// measures is printed but not part of the JSON result.
var (
	endToEnd = []string{"setup_s", "round_cpu_ref", "heap_peak_mb"}
	perLayer = []string{
		"client.self_ms.p50", "server.select.self_ms.p50", "server.answers.self_ms.p50",
		"session.select.self_ms.p50", "session.merge.self_ms.p50", "session.partials_per_round",
		"batch.width_mean", "core.select_ms.p50", "core.merge_ms.p50",
		"store.append_ms.p50", "store.appends_per_round",
		"go.alloc_bytes_per_round", "go.gc_cycles", "go.gc_pause_ms.sum", "trace.overhead_frac",
	}
)

const (
	warmUp = 3 * time.Second
	// Set-up runs at least minSetups times per run, and cheap set-ups more
	// often, until setupBudget has been spent or maxSetups reached;
	// setup_s is the median, so one slow boot does not read as a
	// regression.
	minSetups   = 3
	maxSetups   = 200
	setupBudget = 500 * time.Millisecond
	// runLimit fails requests that are still running this long after start
	// instead of letting the run hang.
	runLimit = 170 * time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds int
	trace   bool
	ladder  bool
	dir     string
}

// result is one workload's outcome, the unit of the -out report.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Trace     bool   `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Verified  int    `json:"verified_sessions"`
	Metrics   report `json:"metrics"`
	Error     string `json:"error,omitempty"`
	// FirstFailure is the first failed request, when any failed.
	FirstFailure string `json:"first_failure,omitempty"`
}

// fileReport is what -out writes and compare reads.
type fileReport struct {
	Env     envStamp  `json:"env"`
	Results []*result `json:"results"`
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+workloadNames()+", or all")
	seed := fs.Int64("seed", 1, "seed every prior, truth world, crowd and arrival schedule derives from")
	seconds := fs.Int("seconds", 20, "measured seconds per workload")
	traceMode := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run instead of the end-to-end ones")
	ladder := fs.Bool("ladder", false, "open-mixed only: step through the fixed rate ladder and report max_rate_rps")
	out := fs.String("out", "", "also write the full report, every metric included, as JSON to this file")
	workdir := fs.String("workdir", ".bench_build", "directory the run's data directories are created in")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(stderr, "loadgen: unexpected arguments; see -h")
		return 2
	}
	var selected []*workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "loadgen: unknown workload %q (want %s, or all)\n", *name, workloadNames())
		return 2
	}
	if *ladder && (len(selected) != 1 || selected[0] != openMixed || *traceMode == 1) {
		fmt.Fprintln(stderr, "loadgen: -ladder runs only with -workload open-mixed, untraced")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "loadgen-")
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	o := options{seed: *seed, seconds: *seconds, trace: *traceMode == 1, ladder: *ladder, dir: dir}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	env := stampEnv(dir)
	declared := endToEnd
	if o.trace {
		declared = perLayer
	}
	if o.ladder {
		declared = nil
	}
	final := map[string]value{}
	var attempted, failed int64
	ok := true
	var results []*result
	for _, w := range selected {
		res, err := runWorkload(ctx, w, o)
		if err != nil {
			fmt.Fprintf(stderr, "loadgen: %s: %v\n", w.name, err)
			return 1
		}
		results = append(results, res)
		printResult(stdout, w, res)
		attempted += res.Attempted
		failed += res.Failed
		if !res.Correct {
			fmt.Fprintf(stderr, "loadgen: %s: %s\n", w.name, res.Error)
			ok = false
			continue
		}
		for _, n := range declared {
			v, found := res.Metrics[n]
			if !found {
				fmt.Fprintf(stderr, "loadgen: %s: declared metric %s was not measured\n", w.name, n)
				return 1
			}
			key := n
			if len(selected) > 1 {
				key = w.name + "/" + n
			}
			final[key] = v
		}
	}
	envJSON, _ := json.Marshal(env) // a struct of strings and ints always encodes
	fmt.Fprintf(stdout, "env %s\n", envJSON)
	if *out != "" {
		data, err := json.MarshalIndent(fileReport{Env: env, Results: results}, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "loadgen: writing %s: %v\n", *out, err)
			return 1
		}
	}
	if !ok {
		final = map[string]value{} // a failed check means no numbers
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{ok, max(attempted, 1), failed, final})
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runWorkload runs one workload in the requested mode. An error is a
// harness failure; a failed correctness check or self-check comes back as
// a result with Correct false.
func runWorkload(ctx context.Context, w *workload, o options) (*result, error) {
	res := &result{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	d := time.Duration(o.seconds) * time.Second
	var passes []*pass
	var setupTimes []float64
	ladder := report{}
	if o.trace {
		for _, traced := range []bool{false, true} {
			p, _, err := runPass(ctx, w, o, traced, 1, func(p *pass, s sut) error {
				return w.drive(p, s, warmUp, d/2)
			})
			if err != nil {
				return nil, err
			}
			passes = append(passes, p)
		}
	} else {
		p, times, err := runPass(ctx, w, o, false, minSetups, func(p *pass, s sut) error {
			if o.ladder {
				openPhase(p, s.(*openSUT), &p.m, ladderRates[0], warmUp, 0)
				return runLadder(p, s.(*openSUT), ladder)
			}
			return w.drive(p, s, warmUp, d)
		})
		if err != nil {
			return nil, err
		}
		passes, setupTimes = []*pass{p}, times
	}

	if err := check(res, w, passes); err != nil {
		res.Error = err.Error()
		return res, nil
	}
	last := passes[len(passes)-1]
	rep := last.report() // after verify: the kernel timings come from the oracle re-runs
	switch {
	case o.trace:
		if u, t := passes[0].meanRoundMs(), last.meanRoundMs(); u > 0 && t > 0 {
			rep.set("trace.overhead_frac", 1-u/t, "ratio")
		}
	case o.ladder:
		rep = ladder
		fallthrough
	default:
		rep.set("setup_s", median(setupTimes), "s")
	}
	res.Correct = true
	res.Metrics = rep
	return res, nil
}

// check runs the correctness gate over the passes — the oracle re-runs,
// the violations recorded while driving, and the harness self-checks — and
// adds their request and verification counts to res.
func check(res *result, w *workload, passes []*pass) error {
	var errs []error
	for _, p := range passes {
		res.Attempted += p.m.attempted.Load()
		res.Failed += p.m.failed.Load()
		if err := p.m.failure(); err != nil && res.FirstFailure == "" {
			res.FirstFailure = err.Error()
		}
		n, err := p.oracle.verify(p.pool)
		res.Verified += n
		errs = append(errs, err, p.failure(w.closedLoop))
	}
	return errors.Join(errs...)
}

// runPass sets the workload up — at least reps times, more while the
// set-ups are cheap, timing each and keeping the last — then runs drive
// on it.
func runPass(ctx context.Context, w *workload, o options, traced bool, reps int,
	drive func(p *pass, s sut) error) (*pass, []float64, error) {
	p, err := newPass(ctx, o.seed, o.dir, traced)
	if err != nil {
		return nil, nil, err
	}
	var s sut
	var times []float64
	spent := 0.0
	for {
		start := time.Now()
		if s, err = w.setup(p); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		spent += times[len(times)-1]
		if len(times) >= reps && (reps == 1 || spent >= setupBudget.Seconds() || len(times) == maxSetups) {
			break
		}
		s.close()
	}
	defer s.close()
	return p, times, drive(p, s)
}

// printResult writes one workload's metrics, one per line with unit and
// sample count, sorted by name.
func printResult(w io.Writer, wl *workload, res *result) {
	fmt.Fprintf(w, "# %s: %s\n", wl.name, wl.why)
	fmt.Fprintf(w, "%s seed=%d seconds=%d trace=%v correct=%v attempted=%d failed=%d verified_sessions=%d\n",
		wl.name, res.Seed, res.Seconds, res.Trace, res.Correct, res.Attempted, res.Failed, res.Verified)
	if res.FirstFailure != "" {
		fmt.Fprintf(w, "%s first failed request: %s\n", wl.name, res.FirstFailure)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		v := res.Metrics[n]
		line := fmt.Sprintf("%s %-34s %14.6g %s", wl.name, n, v.Value, v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf(" (n=%d)", v.N)
		}
		fmt.Fprintln(w, line)
	}
}
