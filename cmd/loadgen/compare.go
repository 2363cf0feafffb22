package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchFile is the part of BENCHMARK.json compare reads: each end-to-end
// metric's direction and regression bound.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type bound struct {
	lowerIsBetter bool
	share         float64
}

// runSet is one side of a comparison: per workload, per metric, the values
// of its runs in file order.
type runSet struct {
	values map[string]map[string][]float64
	envs   []envStamp
}

func loadRunSet(files []string) (*runSet, error) {
	rs := &runSet{values: map[string]map[string][]float64{}}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var fr fileReport
		if err := json.Unmarshal(data, &fr); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		rs.envs = append(rs.envs, fr.Env)
		for _, res := range fr.Results {
			if !res.Correct {
				return nil, fmt.Errorf("%s: %s run failed its checks: %s", f, res.Workload, res.Error)
			}
			byMetric := rs.values[res.Workload]
			if byMetric == nil {
				byMetric = map[string][]float64{}
				rs.values[res.Workload] = byMetric
			}
			for name, v := range res.Metrics {
				byMetric[name] = append(byMetric[name], v.Value)
			}
		}
	}
	return rs, nil
}

// compareMain compares two sets of -out reports, metric by metric and
// workload by workload: median and quartiles of each side, and the change
// of the median. It exits 1 when a bounded metric's medians differ by more
// than its BENCHMARK.json bound. With -verdict the first set is the parent
// and the second the change: only a worsening beyond the bound fails, and
// an improvement is claimed only when the change wins at least 9 of 10
// pairs (run i of each set, ties counting for neither) and the medians
// differ by more than the parent's interquartile range.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark declaration holding the regression bounds")
	verdict := fs.Bool("verdict", false, "the first set is the parent, the second the change: judge the change")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	sep := slices.Index(rest, "--")
	if sep < 1 || sep == len(rest)-1 {
		fmt.Fprintln(stderr, "usage: loadgen compare [-bench file] [-verdict] A.json… -- B.json…")
		return 2
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintf(stderr, "compare: %s: %v\n", *benchPath, err)
		return 2
	}
	bounds := map[string]bound{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = bound{lowerIsBetter: m.Better == "lower", share: m.Bound}
	}
	a, err := loadRunSet(rest[:sep])
	if err == nil {
		var b *runSet
		if b, err = loadRunSet(rest[sep+1:]); err == nil {
			return compareSets(stdout, stderr, a, b, bounds, *verdict)
		}
	}
	fmt.Fprintf(stderr, "compare: %v\n", err)
	return 2
}

func compareSets(stdout, stderr io.Writer, a, b *runSet, bounds map[string]bound, verdict bool) int {
	for _, e := range append(a.envs[1:], b.envs...) {
		if e != a.envs[0] {
			fmt.Fprintf(stderr, "compare: warning: environment stamps differ (%+v vs %+v); the numbers may not be comparable\n", a.envs[0], e)
			break
		}
	}
	code := 0
	workloads := sortedKeys(a.values)
	for _, wl := range workloads {
		bm, ok := b.values[wl]
		if !ok {
			continue
		}
		fmt.Fprintf(stdout, "%s\n", wl)
		for _, name := range sortedKeys(a.values[wl]) {
			av, bv := a.values[wl][name], bm[name]
			if len(bv) == 0 {
				continue
			}
			aq1, amed, aq3 := quartiles(av)
			bq1, bmed, bq3 := quartiles(bv)
			change := 0.0
			if amed != 0 {
				change = (bmed - amed) / math.Abs(amed)
			}
			line := fmt.Sprintf("  %-34s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]  %+.2f%%",
				name, amed, aq1, aq3, bmed, bq1, bq3, 100*change)
			bd, bounded := bounds[name]
			if bounded {
				worse := change
				if !bd.lowerIsBetter {
					worse = -change
				}
				line += fmt.Sprintf("  bound %.0f%%", 100*bd.share)
				switch {
				case !verdict && math.Abs(change) > bd.share:
					line += "  DISAGREE"
					code = 1
				case verdict && worse > bd.share:
					line += "  REGRESSION"
					code = 1
				case verdict:
					line += "  " + pairVerdict(av, bv, bd.lowerIsBetter)
				}
			}
			fmt.Fprintln(stdout, line)
		}
	}
	return code
}

// pairVerdict applies the gain rule to a parent set a and a change set b.
func pairVerdict(a, b []float64, lowerIsBetter bool) string {
	n := min(len(a), len(b))
	wins := 0
	for i := range n {
		if (lowerIsBetter && b[i] < a[i]) || (!lowerIsBetter && b[i] > a[i]) {
			wins++
		}
	}
	q1, amed, q3 := quartiles(a)
	_, bmed, _ := quartiles(b)
	better := (lowerIsBetter && bmed < amed) || (!lowerIsBetter && bmed > amed)
	if better && 10*wins >= 9*n && math.Abs(bmed-amed) > q3-q1 {
		return fmt.Sprintf("gain (won %d/%d pairs)", wins, n)
	}
	return fmt.Sprintf("no gain claimed (won %d/%d pairs)", wins, n)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
