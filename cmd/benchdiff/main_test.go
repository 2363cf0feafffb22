package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func report(cpu string, results ...Result) *Report {
	return &Report{Goos: "linux", Goarch: "amd64", CPU: cpu, Results: results}
}

func TestCompareFailsSyntheticRegression(t *testing.T) {
	base := report("cpuA",
		Result{Name: "BenchmarkFast", Package: "p", NsPerOp: 1000},
		Result{Name: "BenchmarkSlow", Package: "p", NsPerOp: 2000},
	)
	cur := report("cpuA",
		Result{Name: "BenchmarkFast", Package: "p", NsPerOp: 1050}, // +5%: within threshold
		Result{Name: "BenchmarkSlow", Package: "p", NsPerOp: 2400}, // +20%: regression
	)
	findings, shift := compare(base, cur, 0.10, nil, false)
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2", len(findings))
	}
	if shift != 0 {
		t.Fatalf("drift estimated from %d entries (floor is %d)", len(findings), driftFloor)
	}
	// Worst first: the regression leads.
	if findings[0].Name != "p.BenchmarkSlow" || !findings[0].Fails {
		t.Fatalf("regression not flagged: %+v", findings[0])
	}
	if findings[1].Fails {
		t.Fatalf("within-threshold delta flagged: %+v", findings[1])
	}
	var sb strings.Builder
	if failed := render(&sb, findings, 0.10, shift, false); !failed {
		t.Fatal("render reported no failure for a >10%% regression")
	}
	if !strings.Contains(sb.String(), "FAIL") {
		t.Fatalf("report lacks FAIL line:\n%s", sb.String())
	}
}

// TestCompareTakesMinOfRepeats: with repeated suite passes each
// benchmark appears several times per document; the gate must compare
// minima, so one noisy repeat on either side cannot fail (or mask) a
// regression.
func TestCompareTakesMinOfRepeats(t *testing.T) {
	base := report("cpuA",
		Result{Name: "BenchmarkHot", Package: "p", NsPerOp: 1000},
		Result{Name: "BenchmarkHot", Package: "p", NsPerOp: 1400}, // noisy repeat
	)
	cur := report("cpuA",
		Result{Name: "BenchmarkHot", Package: "p", NsPerOp: 1300}, // noisy repeat
		Result{Name: "BenchmarkHot", Package: "p", NsPerOp: 1050},
	)
	findings, _ := compare(base, cur, 0.10, nil, false)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1 (repeats collapsed)", len(findings))
	}
	f := findings[0]
	if f.Base != 1000 || f.Cur != 1050 || f.Fails {
		t.Fatalf("min-of-repeats not applied: %+v", f)
	}
	// Each side's own spread across its passes is max/min - 1, and the
	// report prints it next to the delta.
	if math.Abs(f.BaseSpread-0.4) > 1e-12 || math.Abs(f.CurSpread-(1300.0/1050-1)) > 1e-12 {
		t.Fatalf("spreads %v / %v, want 0.4 / %v", f.BaseSpread, f.CurSpread, 1300.0/1050-1)
	}
	var sb strings.Builder
	render(&sb, findings, 0.10, 0, false)
	if !strings.Contains(sb.String(), "spread  40.0% ->  23.8%") {
		t.Fatalf("report lacks the spreads:\n%s", sb.String())
	}
	// And a genuine regression of the minimum still fails.
	cur.Results[1].NsPerOp = 1200
	if fs, _ := compare(base, cur, 0.10, nil, false); !fs[0].Fails {
		t.Fatalf("regressed minimum passed the gate: %+v", f)
	}
}

// TestCompareDriftNormalization: a machine-state shift moves every
// benchmark by roughly the same factor; the gate must divide that out,
// failing only entries that moved against the pack.
func TestCompareDriftNormalization(t *testing.T) {
	var baseR, curR []Result
	for i := 0; i < 10; i++ {
		name := "Benchmark" + strconv.Itoa(i)
		baseR = append(baseR, Result{Name: name, Package: "p", NsPerOp: 1000})
		curR = append(curR, Result{Name: name, Package: "p", NsPerOp: 1120}) // +12% everywhere
	}
	findings, shift := compare(report("cpuA", baseR...), report("cpuA", curR...), 0.10, nil, false)
	if shift < 0.11 || shift > 0.13 {
		t.Fatalf("drift = %v, want ~0.12", shift)
	}
	for _, f := range findings {
		if f.Fails {
			t.Fatalf("uniform +12%% drift failed the gate: %+v", f)
		}
	}
	// One benchmark moving +30% against the same +12% pack still fails.
	curR[3].NsPerOp = 1300
	findings, _ = compare(report("cpuA", baseR...), report("cpuA", curR...), 0.10, nil, false)
	if findings[0].Name != "p.Benchmark3" || !findings[0].Fails {
		t.Fatalf("against-the-pack regression passed: %+v", findings[0])
	}
	for _, f := range findings[1:] {
		if f.Fails {
			t.Fatalf("pack member failed the gate: %+v", f)
		}
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := report("cpuA", Result{Name: "BenchmarkGone", NsPerOp: 500})
	cur := report("cpuA")
	findings, _ := compare(base, cur, 0.10, nil, false)
	if len(findings) != 1 || !findings[0].Missing || !findings[0].Fails {
		t.Fatalf("missing benchmark not flagged: %+v", findings)
	}
}

func TestCompareAllowlistWarnsOnly(t *testing.T) {
	base := report("cpuA",
		Result{Name: "BenchmarkNoisy", NsPerOp: 100},
		Result{Name: "BenchmarkGone", NsPerOp: 100},
	)
	cur := report("cpuA", Result{Name: "BenchmarkNoisy", NsPerOp: 500})
	findings, _ := compare(base, cur, 0.10, regexp.MustCompile("Noisy|Gone"), false)
	for _, f := range findings {
		if f.Fails {
			t.Fatalf("allowlisted benchmark failed the gate: %+v", f)
		}
	}
}

func TestCompareLenientCPUDowngrades(t *testing.T) {
	base := report("cpuA", Result{Name: "BenchmarkHot", NsPerOp: 100})
	cur := report("cpuB", Result{Name: "BenchmarkHot", NsPerOp: 300})
	findings, _ := compare(base, cur, 0.10, nil, true)
	if findings[0].Fails || !findings[0].Lenient {
		t.Fatalf("lenient mode did not downgrade: %+v", findings[0])
	}
}

// TestCompareGatesBytes: B/op is gated on its minimum across passes,
// with no drift correction: a planted 32 KiB allocation fails even
// across CPU models (-lenient-cpu downgrades only ns/op), a shrink or a
// growth within the threshold passes, a growth under bytesSlack passes
// whatever its ratio, and an allowlisted growth only warns.
func TestCompareGatesBytes(t *testing.T) {
	b := func(name string, ns, bytes float64) Result {
		return Result{Name: name, Package: "p", NsPerOp: ns, BytesPerOp: bytes}
	}
	base := report("cpuA",
		b("BenchmarkPlanted", 1000, 2255), b("BenchmarkPlanted", 1100, 2300),
		b("BenchmarkShrunk", 1000, 41072),
		b("BenchmarkWithin", 1000, 10000),
		b("BenchmarkTiny", 1000, 0),
		b("BenchmarkAllowed", 1000, 100),
	)
	cur := report("cpuB",
		b("BenchmarkPlanted", 1000, 2255+32768), b("BenchmarkPlanted", 1000, 2255+32800),
		b("BenchmarkShrunk", 1000, 33056),
		b("BenchmarkWithin", 1000, 10900),
		b("BenchmarkTiny", 1000, 7),
		b("BenchmarkAllowed", 1000, 50000),
	)
	findings, _ := compare(base, cur, 0.10, regexp.MustCompile("Allowed"), true)
	byName := map[string]Finding{}
	for _, f := range findings {
		byName[f.Name] = f
	}
	planted := byName["p.BenchmarkPlanted"]
	if !planted.Fails || !planted.BytesGrew || planted.BaseBytes != 2255 || planted.CurBytes != 2255+32768 {
		t.Fatalf("planted allocation passed the gate: %+v", planted)
	}
	for _, name := range []string{"p.BenchmarkShrunk", "p.BenchmarkWithin", "p.BenchmarkTiny", "p.BenchmarkAllowed"} {
		if f := byName[name]; f.Fails {
			t.Errorf("%s failed the gate: %+v", name, f)
		}
	}
	if !byName["p.BenchmarkAllowed"].BytesGrew {
		t.Error("allowlisted growth not reported")
	}
	var sb strings.Builder
	if failed := render(&sb, findings, 0.10, 0, true); !failed {
		t.Fatal("render reported no failure for a planted allocation")
	}
	if !strings.Contains(sb.String(), "2255 B/op ->      35023 B/op  B/op grew") {
		t.Fatalf("report lacks the B/op growth:\n%s", sb.String())
	}
}

// TestRunEndToEnd drives the CLI through run(): a synthetic >10%
// regression must exit 1 in strict mode and 0 with -lenient-cpu across
// differing CPUs.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cpu string, ns float64) string {
		path := filepath.Join(dir, name)
		data := `{"goos":"linux","goarch":"amd64","cpu":"` + cpu + `","results":[` +
			`{"name":"BenchmarkX","package":"p","iterations":10,"ns_per_op":` +
			strconv.FormatFloat(ns, 'g', -1, 64) + `}]}`
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", "cpuA", 1000)
	cur := write("cur.json", "cpuA", 1500)
	var out, errOut strings.Builder
	if code := run([]string{"-baseline", base, "-current", cur}, &out, &errOut); code != 1 {
		t.Fatalf("strict run exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	curB := write("curB.json", "cpuB", 1500)
	out.Reset()
	if code := run([]string{"-baseline", base, "-current", curB, "-lenient-cpu"}, &out, &errOut); code != 0 {
		t.Fatalf("lenient run exit = %d, want 0\n%s", code, out.String())
	}
	outFile := filepath.Join(dir, "diff.txt")
	if code := run([]string{"-baseline", base, "-current", cur, "-threshold", "0.60", "-out", outFile}, &out, &errOut); code != 0 {
		t.Fatalf("raised-threshold run exit = %d, want 0", code)
	}
	if _, err := os.Stat(outFile); err != nil {
		t.Fatalf("-out report not written: %v", err)
	}
	// A B/op growth fails even with -lenient-cpu across differing CPUs.
	withBytes := func(name, cpu string, bytes int) string {
		path := filepath.Join(dir, name)
		data := `{"goos":"linux","goarch":"amd64","cpu":"` + cpu + `","results":[` +
			`{"name":"BenchmarkX","package":"p","iterations":10,"ns_per_op":1000,"bytes_per_op":` +
			strconv.Itoa(bytes) + `}]}`
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	baseB, curBytes := withBytes("baseB.json", "cpuA", 2255), withBytes("curBytes.json", "cpuB", 35023)
	if code := run([]string{"-baseline", baseB, "-current", curBytes, "-lenient-cpu"}, &out, &errOut); code != 1 {
		t.Fatalf("B/op growth exit = %d, want 1\n%s", code, out.String())
	}
}
