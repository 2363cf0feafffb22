package eval

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"crowdfusion/internal/bookdata"
	"crowdfusion/internal/core"
	"crowdfusion/internal/crowd"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/fusion"
	"crowdfusion/internal/worlds"
)

func testInstances(tb testing.TB, books, sources int, seed int64) []*worlds.Instance {
	tb.Helper()
	cfg := bookdata.DefaultConfig()
	cfg.Books = books
	cfg.Sources = sources
	cfg.Seed = seed
	d, err := bookdata.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	truths, err := fusion.NewCRH().Fuse(d.Claims)
	if err != nil {
		tb.Fatal(err)
	}
	instances, err := worlds.BuildAll(d, truths, worlds.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return instances
}

func TestScoreAndMetrics(t *testing.T) {
	judg := []bool{true, true, false, false, true}
	gold := []bool{true, false, false, true, true}
	m, err := Score(judg, gold)
	if err != nil {
		t.Fatal(err)
	}
	if m.TP != 2 || m.FP != 1 || m.FN != 1 || m.TN != 1 {
		t.Fatalf("confusion = %+v", m)
	}
	if math.Abs(m.Precision()-2.0/3) > 1e-12 {
		t.Errorf("precision = %v", m.Precision())
	}
	if math.Abs(m.Recall()-2.0/3) > 1e-12 {
		t.Errorf("recall = %v", m.Recall())
	}
	if math.Abs(m.F1()-2.0/3) > 1e-12 {
		t.Errorf("F1 = %v", m.F1())
	}
	if math.Abs(m.Accuracy()-0.6) > 1e-12 {
		t.Errorf("accuracy = %v", m.Accuracy())
	}
	if _, err := Score(judg, gold[:2]); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestMetricsEdgeCases(t *testing.T) {
	var zero Metrics
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 || zero.Accuracy() != 0 {
		t.Error("zero metrics should yield zero scores")
	}
	sum := Metrics{TP: 1}.Add(Metrics{FP: 2, TN: 3})
	if sum.TP != 1 || sum.FP != 2 || sum.TN != 3 || sum.Total() != 6 {
		t.Errorf("Add = %+v", sum)
	}
}

func TestRunSweepValidation(t *testing.T) {
	if _, err := RunSweep(SweepConfig{}); err != ErrInstanceCount {
		t.Errorf("empty sweep err = %v", err)
	}
	ins := testInstances(t, 3, 8, 1)
	if _, err := RunSweep(SweepConfig{Instances: ins, Selector: core.SelApprox, Pc: 0.8}); err == nil {
		t.Error("zero K/Budget accepted")
	}
}

func TestRunSweepShape(t *testing.T) {
	ins := testInstances(t, 6, 10, 2)
	res, err := RunSweep(SweepConfig{
		Instances: ins,
		Selector:  core.SelApproxFull,
		K:         2,
		Budget:    8,
		Pc:        0.8,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("empty trace")
	}
	maxCost := 0
	prevCost := 0
	for _, p := range res.Trace {
		if p.Cost <= prevCost {
			t.Errorf("cost not strictly increasing: %d -> %d", prevCost, p.Cost)
		}
		prevCost = p.Cost
		if p.F1 < 0 || p.F1 > 1 {
			t.Errorf("F1 = %v out of range", p.F1)
		}
		maxCost = p.Cost
	}
	if maxCost > 8*len(ins) {
		t.Errorf("total cost %d exceeds budget %d", maxCost, 8*len(ins))
	}
	if res.Final.Total() == 0 {
		t.Error("final metrics empty")
	}
}

// TestSweepImprovesOverPrior: with an accurate crowd and the greedy
// selector, the final F1 across books must improve on the machine-only
// prior — the headline claim of the paper.
func TestSweepImprovesOverPrior(t *testing.T) {
	ins := testInstances(t, 10, 14, 4)
	_, prior, err := PriorQuality(ins)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSweep(SweepConfig{
		Instances: ins,
		Selector:  core.SelApproxPrune,
		K:         2,
		Budget:    30,
		Pc:        0.9,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.F1() <= prior.F1() {
		t.Errorf("final F1 %v did not beat prior %v", res.Final.F1(), prior.F1())
	}
}

// TestSweepGreedyBeatsRandom: at equal budget the greedy selector must
// dominate random selection on average — the core comparison of Figures
// 2-4 (which, like the paper, use the exact Approx selector; preprocessing
// belongs to the Table V timing study). Averaged over seeds for stability.
func TestSweepGreedyBeatsRandom(t *testing.T) {
	ins := testInstances(t, 12, 14, 6)
	var greedySum, randomSum float64
	const seeds = 12
	for s := int64(0); s < seeds; s++ {
		g, err := RunSweep(SweepConfig{
			Instances: ins, Selector: core.SelApproxPrune,
			K: 2, Budget: 16, Pc: 0.8, Seed: 100 + 31*s,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunSweep(SweepConfig{
			Instances: ins, Selector: core.SelRandom,
			K: 2, Budget: 16, Pc: 0.8, Seed: 100 + 31*s,
		})
		if err != nil {
			t.Fatal(err)
		}
		greedySum += g.Final.F1()
		randomSum += r.Final.F1()
	}
	if greedySum <= randomSum {
		t.Errorf("greedy avg F1 %v <= random %v", greedySum/seeds, randomSum/seeds)
	}
}

// TestPreprocessingQualityAblation quantifies the documented trade-off: on
// sparse supports the Algorithm-2 acceleration approximates the objective,
// so its selections may lose some quality versus exact greedy — but must
// stay within a modest band and keep spending the budget (no silent early
// stops).
func TestPreprocessingQualityAblation(t *testing.T) {
	ins := testInstances(t, 10, 14, 6)
	var exactSum, preSum float64
	const seeds = 8
	for s := int64(0); s < seeds; s++ {
		ex, err := RunSweep(SweepConfig{
			Instances: ins, Selector: core.SelApproxPrune,
			K: 2, Budget: 16, Pc: 0.8, Seed: 500 + 17*s,
		})
		if err != nil {
			t.Fatal(err)
		}
		pr, err := RunSweep(SweepConfig{
			Instances: ins, Selector: core.SelApproxFull,
			K: 2, Budget: 16, Pc: 0.8, Seed: 500 + 17*s,
		})
		if err != nil {
			t.Fatal(err)
		}
		exactSum += ex.Final.F1()
		preSum += pr.Final.F1()
		// The exact-confirmed stop rule must keep the preprocessed
		// run spending a comparable budget.
		exCost := ex.Trace[len(ex.Trace)-1].Cost
		prCost := pr.Trace[len(pr.Trace)-1].Cost
		if prCost*2 < exCost {
			t.Errorf("seed %d: preprocessed run stopped early: cost %d vs %d", s, prCost, exCost)
		}
	}
	if preSum < 0.9*exactSum {
		t.Errorf("preprocessed F1 %v lost more than 10%% vs exact %v",
			preSum/seeds, exactSum/seeds)
	}
}

// TestSweepHigherPcHigherUtility reproduces Figure 4(b): a more accurate
// crowd reaches higher utility at equal cost.
func TestSweepHigherPcHigherUtility(t *testing.T) {
	ins := testInstances(t, 8, 12, 8)
	var u7, u9 float64
	const seeds = 5
	for s := int64(0); s < seeds; s++ {
		lo, err := RunSweep(SweepConfig{
			Instances: ins, Selector: core.SelApproxPrune,
			K: 2, Budget: 20, Pc: 0.7, Seed: 200 + s,
		})
		if err != nil {
			t.Fatal(err)
		}
		hi, err := RunSweep(SweepConfig{
			Instances: ins, Selector: core.SelApproxPrune,
			K: 2, Budget: 20, Pc: 0.9, Seed: 200 + s,
		})
		if err != nil {
			t.Fatal(err)
		}
		u7 += lo.Trace[len(lo.Trace)-1].Utility
		u9 += hi.Trace[len(hi.Trace)-1].Utility
	}
	if u9 <= u7 {
		t.Errorf("Pc=0.9 final utility %v <= Pc=0.7 %v", u9/seeds, u7/seeds)
	}
}

func TestSweepDeterministic(t *testing.T) {
	ins := testInstances(t, 4, 8, 10)
	cfg := SweepConfig{Instances: ins, Selector: core.SelApproxFull, K: 2, Budget: 10, Pc: 0.8, Seed: 7}
	a, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatal("trace lengths differ")
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("traces diverge at %d: %+v vs %+v", i, a.Trace[i], b.Trace[i])
		}
	}
}

// TestSweepMisestimatedPc: assuming a different accuracy than the crowd
// actually has still runs and yields sane output (Section V-C3).
func TestSweepMisestimatedPc(t *testing.T) {
	ins := testInstances(t, 4, 8, 12)
	res, err := RunSweep(SweepConfig{
		Instances: ins, Selector: core.SelApproxFull,
		K: 2, Budget: 10, Pc: 0.7, CrowdPc: 0.9, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Total() == 0 {
		t.Error("no judgments scored")
	}
}

// TestSweepParallelMatchesSequential: stepping books concurrently must be
// bit-identical to the sequential run — each book owns its RNG streams.
func TestSweepParallelMatchesSequential(t *testing.T) {
	ins := testInstances(t, 10, 12, 13)
	base := SweepConfig{
		Instances: ins, Selector: core.SelApproxPrune,
		K: 2, Budget: 12, Pc: 0.8, Seed: 21,
		Parallelism: 1, // force sequential (0 now means GOMAXPROCS)
	}
	seq, err := RunSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Parallelism = 8
	got, err := RunSweep(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Trace) != len(got.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(seq.Trace), len(got.Trace))
	}
	for i := range seq.Trace {
		if seq.Trace[i] != got.Trace[i] {
			t.Fatalf("parallel diverged at round %d: %+v vs %+v",
				i+1, seq.Trace[i], got.Trace[i])
		}
	}
	if seq.Final != got.Final {
		t.Errorf("final metrics diverged: %+v vs %+v", seq.Final, got.Final)
	}
}

// TestSweepMatchesEngine: a one-book sweep and core.Engine over the same
// prior, selector seed and crowd seed end with the same posterior, bit for
// bit, at the same cost — the harness refines the way the engine does. The
// budget is not a multiple of K, so the final round is clamped.
func TestSweepMatchesEngine(t *testing.T) {
	const seed, k, budget, pc = 5, 3, 10, 0.8
	for _, kind := range []core.SelectorKind{core.SelApproxFull, core.SelRandom} {
		for bi, in := range testInstances(t, 3, 10, 17) {
			res, err := RunSweep(SweepConfig{Instances: []*worlds.Instance{in}, Selector: kind,
				K: k, Budget: budget, Pc: pc, Seed: seed, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			sel, err := core.NewSelector(kind, seed)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := in.UniformSimulator(pc, seed)
			if err != nil {
				t.Fatal(err)
			}
			eng := core.Engine{Prior: in.Joint, Selector: sel, Crowd: sim, Pc: pc, K: k, Budget: budget}
			want, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if want.Cost == 0 {
				t.Fatalf("%s book %d: the engine asked nothing", kind, bi)
			}
			cost := 0
			if n := len(res.Trace); n > 0 {
				cost = res.Trace[n-1].Cost
			}
			if cost != want.Cost {
				t.Errorf("%s book %d: sweep cost %d, engine cost %d", kind, bi, cost, want.Cost)
			}
			got := res.Joints[0]
			if !slices.Equal(got.Worlds(), want.Final.Worlds()) ||
				!slices.EqualFunc(got.Probs(), want.Final.Probs(), func(a, b float64) bool {
					return math.Float64bits(a) == math.Float64bits(b)
				}) {
				t.Errorf("%s book %d: sweep posterior differs from the engine's", kind, bi)
			}
		}
	}
}

func TestPriorQuality(t *testing.T) {
	ins := testInstances(t, 5, 8, 14)
	u, m, err := PriorQuality(ins)
	if err != nil {
		t.Fatal(err)
	}
	if u >= 0 {
		t.Errorf("prior utility %v should be negative (uncertain prior)", u)
	}
	if m.Total() == 0 {
		t.Error("prior metrics empty")
	}
	if _, _, err := PriorQuality(nil); err != ErrInstanceCount {
		t.Errorf("empty instances err = %v", err)
	}
}

func TestRunTimings(t *testing.T) {
	ins := testInstances(t, 4, 10, 16)
	res, err := RunTimings(TimingConfig{
		Instances: ins,
		Ks:        []int{1, 2, 3},
		Selectors: []core.SelectorKind{core.SelOPT, core.SelApprox, core.SelApproxFull},
		Pc:        0.8,
		MaxOptK:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 9 {
		t.Fatalf("cells = %d, want 9", len(res.Cells))
	}
	// OPT at k=3 must be skipped.
	cell, ok := res.Cell(3, core.SelOPT)
	if !ok || !cell.Skipped {
		t.Errorf("OPT at k=3 not skipped: %+v", cell)
	}
	// Non-skipped cells have non-negative times.
	for _, c := range res.Cells {
		if !c.Skipped && c.Seconds < 0 {
			t.Errorf("negative time %v", c.Seconds)
		}
	}
	if _, err := RunTimings(TimingConfig{}); err != ErrInstanceCount {
		t.Errorf("empty timing err = %v", err)
	}
	if _, err := RunTimings(TimingConfig{Instances: ins}); err == nil {
		t.Error("missing Ks/Selectors accepted")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	ins := testInstances(t, 6, 10, 18)
	finals := make([]*dist.Joint, len(ins))
	for i, in := range ins {
		finals[i] = in.Joint // unrefined: errors are whatever the prior gets wrong
	}
	b, err := AnalyzeErrors(ins, finals)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, c := range crowd.ErrorClasses {
		total += b.TotalByClass[c]
		if b.Wrong[c] > b.TotalByClass[c] {
			t.Errorf("class %v: wrong %d > total %d", c, b.Wrong[c], b.TotalByClass[c])
		}
	}
	want := 0
	for _, in := range ins {
		want += in.N()
	}
	if total != want {
		t.Errorf("breakdown covers %d statements, want %d", total, want)
	}
	if _, err := AnalyzeErrors(ins, finals[:1]); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := AnalyzeErrors(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if b.Rate(crowd.ErrorClass(77)) != 0 {
		t.Error("unknown class rate should be 0")
	}
}

func TestRenderers(t *testing.T) {
	ins := testInstances(t, 3, 8, 20)
	timings, err := RunTimings(TimingConfig{
		Instances: ins,
		Ks:        []int{1, 2},
		Selectors: []core.SelectorKind{core.SelApprox, core.SelApproxFull},
		Pc:        0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderTimings(&buf, timings); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Approx") {
		t.Error("timing table missing selector header")
	}
	buf.Reset()
	if err := WriteTimingsCSV(&buf, timings); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Errorf("CSV has %d lines, want 3", lines)
	}

	trace := []TracePoint{{Round: 1, Cost: 10, Utility: -5, F1: 0.7}}
	buf.Reset()
	err = WriteTraceCSV(&buf, map[string][]TracePoint{"b": trace, "a": trace})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Index(out, "\na,") > strings.Index(out, "\nb,") {
		t.Error("trace CSV series not sorted")
	}

	buf.Reset()
	breakdown := ErrorBreakdown{
		Wrong:        map[crowd.ErrorClass]int{crowd.Misspelling: 2},
		TotalByClass: map[crowd.ErrorClass]int{crowd.Misspelling: 4},
	}
	if err := RenderErrorBreakdown(&buf, breakdown); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "misspelling") {
		t.Error("breakdown table missing class")
	}
}
