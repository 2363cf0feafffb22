package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"crowdfusion/internal/trace"
)

func TestSameSeedSameInputs(t *testing.T) {
	a := arrivals(7, 1, 300, 2*time.Second)
	if !slices.Equal(a, arrivals(7, 1, 300, 2*time.Second)) {
		t.Fatal("one seed gave two arrival schedules")
	}
	if slices.Equal(a, arrivals(8, 1, 300, 2*time.Second)) {
		t.Fatal("two seeds gave one arrival schedule")
	}
	if n := len(a); n < 500 || n > 700 {
		t.Fatalf("300/s for 2s scheduled %d arrivals", n)
	}
	if !slices.IsSorted(a) {
		t.Fatal("arrivals out of order")
	}
	for _, gen := range []func(seed int64, i int) spec{openSpec, recoverSpec} {
		for i := range 8 {
			if !reflect.DeepEqual(gen(7, i), gen(7, i)) {
				t.Fatalf("session %d differs between two runs of one seed", i)
			}
			if reflect.DeepEqual(gen(7, i).marginals, gen(8, i).marginals) {
				t.Fatalf("session %d is the same under two seeds", i)
			}
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int // per mille; 0 = none
	}{{10, 0}, {19, 0}, {20, 500}, {100, 900}, {200, 950}, {999, 950}, {1000, 990}, {9999, 990}, {10000, 999}} {
		got, _ := tailPermille(c.n)
		if got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	if _, err := percentile(ramp(999), 990); err == nil {
		t.Fatal("p99 of 999 samples was reported")
	}
	if got, err := percentile(ramp(1000), 990); err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	if got, _ := percentile(ramp(20), 500); got != 10 {
		t.Fatalf("p50 of 1..20 = %v, want 10", got)
	}
	if n := need(990); n != 1000 {
		t.Fatalf("need(p99) = %d, want 1000", n)
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestSampleGroupsHoldEnoughSamples(t *testing.T) {
	var s samples
	for slice, n := range []int{3, 3, 3, 1, 5, 2} {
		for range n {
			s.addMs(float64(slice))
		}
		s.mark()
	}
	var sizes []int
	for _, g := range s.groups(5) {
		sizes = append(sizes, len(g))
	}
	// 3+3 reaches 5; 3+1+5 reaches 5; the short tail (2) joins the last group.
	if !slices.Equal(sizes, []int{6, 11}) {
		t.Fatalf("group sizes %v, want [6 11]", sizes)
	}
	if got := len(s.groups(100)); got != 1 {
		t.Fatalf("too few samples for any group gave %d groups, want the whole window", got)
	}
}

func TestNormalizeSpanName(t *testing.T) {
	for in, want := range map[string]string{
		"POST /v1/sessions/3fa9c0de/select":                "POST /v1/sessions/{id}/select",
		"GET /v1/sessions/3fa9c0de":                        "GET /v1/sessions/{id}",
		"client GET /v1/sessions/3fa9c0de?rounds=true":     "client GET /v1/sessions/{id}",
		"client POST /v1/sessions/abc/answers":             "client POST /v1/sessions/{id}/answers",
		"POST /v1/sessions":                                "POST /v1/sessions",
		"session.merge":                                    "session.merge",
		"client GET /v1/sessions?after=3fa9c0de&limit=100": "client GET /v1/sessions",
	} {
		if got := normalizeSpanName(in); got != want {
			t.Errorf("normalizeSpanName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	t0 := time.Unix(1000, 0)
	span := func(id, parent string, start, dur int) trace.SpanData {
		return trace.SpanData{TraceID: "t", SpanID: id, ParentID: parent, Name: id,
			Start: t0.Add(time.Duration(start) * time.Millisecond), Duration: time.Duration(dur) * time.Millisecond}
	}
	root := span("root", "", 0, 100)
	kids := []trace.SpanData{
		span("a", "root", 10, 30),  // 10–40
		span("b", "root", 20, 30),  // 20–50, overlaps a
		span("c", "root", 60, 10),  // 60–70
		span("d", "root", 90, 30),  // 90–120, clipped to 90–100
		span("e", "root", -20, 10), // before the parent: ignored
	}
	if got := selfTime(root, kids); got != 40*time.Millisecond {
		t.Fatalf("self time %v, want 40ms (100 − 40 − 10 − 10)", got)
	}

	set := spanSet{}
	set.add([]trace.TraceData{{TraceID: "t", Spans: append(kids[:2:2],
		trace.SpanData{TraceID: "t", SpanID: "root", Name: "POST /v1/sessions/abc/answers",
			Start: t0, Duration: 100 * time.Millisecond})}}, t0)
	agg := set["POST /v1/sessions/{id}/answers"]
	if agg == nil || len(agg.self) != 1 || agg.self[0] != 60 {
		t.Fatalf("aggregated root self time %+v, want one sample of 60ms", agg)
	}
}

// TestSmokeAllWorkloads runs every workload for one second without warm-up
// and requires each to pass the correctness gate and report every declared
// end-to-end metric it can support at that length.
func TestSmokeAllWorkloads(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	o := options{seed: 3, seconds: 1, dir: t.TempDir()}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p, _, err := runPass(ctx, w, o, false, 1, func(p *pass, s sut) error {
				return w.drive(p, s, 0, time.Second)
			})
			if err != nil {
				t.Fatal(err)
			}
			res := &result{}
			if err := check(res, w, []*pass{p}); err != nil {
				t.Fatalf("correctness gate: %v", err)
			}
			if res.Failed > 0 || res.Verified == 0 {
				t.Fatalf("%d of %d requests failed, %d sessions verified", res.Failed, res.Attempted, res.Verified)
			}
			rep := p.report()
			for _, name := range []string{"rounds_per_s", "cpu_ms_per_round", "round_cpu_ref", "round_p50_ms", "select_p50_ms", "answer_p50_ms", "heap_peak_mb"} {
				if v, ok := rep[name]; !ok || v.Value <= 0 {
					t.Errorf("%s = %+v, want a positive value", name, v)
				}
			}
		})
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-workload", "refine-mem", "-ladder"},
		{"extra"},
	} {
		var out, errOut bytes.Buffer
		if code := runMain(args, &out, &errOut); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed a result: %s", args, out.String())
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	writeJSON(t, bench, map[string]any{"end_to_end": []map[string]any{
		{"name": "rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
		{"name": "round_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
	}})
	set := func(name string, rps, p50 []float64) []string {
		var files []string
		for i := range rps {
			f := filepath.Join(dir, name+string(rune('0'+i))+".json")
			writeJSON(t, f, fileReport{Results: []*result{{Workload: "refine-mem", Correct: true,
				Metrics: report{"rounds_per_s": {Value: rps[i]}, "round_p50_ms": {Value: p50[i]}}}}})
			files = append(files, f)
		}
		return files
	}
	ten := func(v float64) []float64 { return slices.Repeat([]float64{v}, 10) }
	base := set("a", []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}, ten(1))
	same := set("b", []float64{101, 100, 100, 99, 101, 100, 98, 102, 100, 99}, ten(1.02))
	faster := set("c", []float64{120, 121, 119, 122, 120, 118, 121, 120, 119, 122}, ten(0.8))
	slower := set("d", ten(100), ten(1.2))

	run := func(verdict bool, a, b []string) (int, string) {
		args := []string{"-bench", bench}
		if verdict {
			args = append(args, "-verdict")
		}
		args = append(append(append(args, a...), "--"), b...)
		var out, errOut bytes.Buffer
		code := compareMain(args, &out, &errOut)
		return code, out.String() + errOut.String()
	}
	if code, out := run(false, base, same); code != 0 {
		t.Fatalf("two sets of one code disagreed (exit %d):\n%s", code, out)
	}
	if code, out := run(false, base, faster); code != 1 || !strings.Contains(out, "DISAGREE") {
		t.Fatalf("sets 20%% apart agreed (exit %d):\n%s", code, out)
	}
	if code, out := run(true, base, faster); code != 0 || !strings.Contains(out, "gain (won 10/10 pairs)") {
		t.Fatalf("a clear gain was not claimed (exit %d):\n%s", code, out)
	}
	if code, out := run(true, base, slower); code != 1 || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("a 20%% slowdown passed (exit %d):\n%s", code, out)
	}
}

// TestBenchmarkDeclaration keeps BENCHMARK.json and the metrics a run puts
// in its JSON result in step.
func TestBenchmarkDeclaration(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no benchmark declaration: %v", err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	names := func(v []struct{ Name string }) []string {
		var out []string
		for _, x := range v {
			out = append(out, x.Name)
		}
		return out
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.name)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{{"workloads", names(decl.Workloads), wl}, {"end_to_end", names(decl.EndToEnd), endToEnd}, {"per_layer", names(decl.PerLayer), perLayer}} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, the benchmark reports %v", c.what, c.got, c.want)
		}
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
