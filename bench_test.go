// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section V), plus ablations for the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Shapes to expect (absolute numbers are hardware-specific):
//
//   - Table V: OPT grows explosively in k and is skipped past k = 3;
//     Approx grows with k; Prune flattens the growth; Pre cuts a further
//     constant factor; Prune+Pre is fastest.
//   - Figures 2-4: Approx ≈ OPT ≫ Random on final F1 (reported as the
//     custom "F1" metric); higher Pc gives higher utility; smaller k gives
//     better quality per task for Approx.
package crowdfusion

import (
	"fmt"
	"sync"
	"testing"

	"crowdfusion/internal/bookdata"
	"crowdfusion/internal/core"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/eval"
	"crowdfusion/internal/fusion"
	"crowdfusion/internal/worlds"
)

// benchData lazily builds the shared benchmark dataset: 60 books and 40
// sources, which yields both >20-fact books (Table V) and a pool of small
// books (Figure 2).
var benchData struct {
	once      sync.Once
	err       error
	dataset   *bookdata.Dataset
	instances []*worlds.Instance
	large     []*worlds.Instance // > 20 facts, for Table V
	small     []*worlds.Instance // 40 smallest, for Figure 2
}

func benchInstances(b *testing.B) ([]*worlds.Instance, []*worlds.Instance, []*worlds.Instance) {
	b.Helper()
	benchData.once.Do(func() {
		cfg := bookdata.DefaultConfig()
		cfg.Books = 60
		cfg.Sources = 40
		cfg.Seed = 1
		d, err := bookdata.Generate(cfg)
		if err != nil {
			benchData.err = err
			return
		}
		truths, err := fusion.NewCRH().Fuse(d.Claims)
		if err != nil {
			benchData.err = err
			return
		}
		ins, err := worlds.BuildAll(d, truths, worlds.DefaultOptions())
		if err != nil {
			benchData.err = err
			return
		}
		benchData.dataset = d
		benchData.instances = ins
		wantLarge := make(map[string]bool)
		for _, isbn := range d.BooksWithAtLeast(21) {
			wantLarge[isbn] = true
		}
		wantSmall := make(map[string]bool)
		for _, isbn := range d.SmallestBooks(40) {
			wantSmall[isbn] = true
		}
		for _, in := range ins {
			if wantLarge[in.ISBN] {
				benchData.large = append(benchData.large, in)
			}
			if wantSmall[in.ISBN] {
				benchData.small = append(benchData.small, in)
			}
		}
	})
	if benchData.err != nil {
		b.Fatal(benchData.err)
	}
	return benchData.instances, benchData.large, benchData.small
}

// --- Table V: one-round selection time of the five approaches ----------

func BenchmarkTable5(b *testing.B) {
	_, large, _ := benchInstances(b)
	if len(large) == 0 {
		b.Fatal("no large books generated")
	}
	selectors := []struct {
		name string
		kind core.SelectorKind
		maxK int
	}{
		{"OPT", core.SelOPT, 3}, // the paper's OPT never finished k = 4
		{"Approx", core.SelApprox, 10},
		{"ApproxPrune", core.SelApproxPrune, 10},
		{"ApproxPre", core.SelApproxPre, 10},
		{"ApproxPrunePre", core.SelApproxFull, 10},
	}
	for _, sc := range selectors {
		for k := 1; k <= sc.maxK; k++ {
			b.Run(fmt.Sprintf("%s/k=%d", sc.name, k), func(b *testing.B) {
				sel, err := core.NewSelector(sc.kind, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					in := large[i%len(large)]
					if _, err := sel.Select(in.Joint, k, 0.8); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable5DenseRegime reruns the selection-time comparison in the
// paper's own support regime: a dense 2^n-world joint built from
// independent marginals (the paper's |O| = 2^n is what made its absolute
// times so large). n is kept at 12 so the bench stays laptop-sized.
func BenchmarkTable5DenseRegime(b *testing.B) {
	const n = 12
	marginals := make([]float64, n)
	for i := range marginals {
		marginals[i] = 0.3 + 0.4*float64(i)/float64(n-1)
	}
	j, err := dist.Independent(marginals)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2, 4} {
		for _, sc := range []struct {
			name string
			sel  core.Selector
		}{
			{"Approx", core.NewGreedy()},
			{"ApproxPrune", core.NewGreedyPrune()},
			{"ApproxPre", core.NewGreedyPre()},
			{"ApproxPrunePre", core.NewGreedyPrunePre()},
		} {
			b.Run(fmt.Sprintf("%s/k=%d", sc.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sc.sel.Select(j, k, 0.8); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// figSeed seeds every iteration of the figure benchmarks, so the F1 they
// report belongs to one fixed run and does not move with -benchtime.
const figSeed = 0

// --- Figure 2: OPT vs Approx vs Random quality at k = 2, B = 10 --------

func BenchmarkFig2(b *testing.B) {
	_, _, small := benchInstances(b)
	for _, pc := range []float64{0.7, 0.8, 0.9} {
		for _, kind := range []core.SelectorKind{core.SelOPT, core.SelApprox, core.SelRandom} {
			b.Run(fmt.Sprintf("pc=%.1f/%s", pc, kind), func(b *testing.B) {
				var f1 float64
				for i := 0; i < b.N; i++ {
					res, err := eval.RunSweep(eval.SweepConfig{
						Instances: small,
						Selector:  kind,
						K:         2,
						Budget:    10,
						Pc:        pc,
						Seed:      figSeed,
					})
					if err != nil {
						b.Fatal(err)
					}
					f1 = res.Final.F1()
				}
				b.ReportMetric(f1, "F1")
			})
		}
	}
}

// --- Figure 3: k-setting sweep ------------------------------------------

func BenchmarkFig3(b *testing.B) {
	ins, _, _ := benchInstances(b)
	for k := 1; k <= 6; k++ {
		for _, kind := range []core.SelectorKind{core.SelApproxPrune, core.SelRandom} {
			b.Run(fmt.Sprintf("k=%d/%s", k, kind), func(b *testing.B) {
				var f1 float64
				for i := 0; i < b.N; i++ {
					res, err := eval.RunSweep(eval.SweepConfig{
						Instances: ins,
						Selector:  kind,
						K:         k,
						Budget:    30,
						Pc:        0.8,
						Seed:      figSeed,
					})
					if err != nil {
						b.Fatal(err)
					}
					f1 = res.Final.F1()
				}
				b.ReportMetric(f1, "F1")
			})
		}
	}
}

// --- Figure 4: Pc-setting sweep ------------------------------------------

func BenchmarkFig4(b *testing.B) {
	ins, _, _ := benchInstances(b)
	for _, pc := range []float64{0.7, 0.8, 0.9} {
		for _, kind := range []core.SelectorKind{core.SelApproxPrune, core.SelRandom} {
			b.Run(fmt.Sprintf("pc=%.1f/%s", pc, kind), func(b *testing.B) {
				var f1, u float64
				for i := 0; i < b.N; i++ {
					res, err := eval.RunSweep(eval.SweepConfig{
						Instances: ins,
						Selector:  kind,
						K:         3,
						Budget:    30,
						Pc:        pc,
						Seed:      figSeed,
					})
					if err != nil {
						b.Fatal(err)
					}
					f1 = res.Final.F1()
					u = res.Trace[len(res.Trace)-1].Utility
				}
				b.ReportMetric(f1, "F1")
				b.ReportMetric(u, "utility")
			})
		}
	}
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationPruneRule compares the sound lazy prune against the
// literal Theorem 3 rule and no pruning at all, at the k where pruning
// pays off.
func BenchmarkAblationPruneRule(b *testing.B) {
	_, large, _ := benchInstances(b)
	if len(large) == 0 {
		b.Skip("no large books")
	}
	selectors := []struct {
		name string
		sel  core.Selector
	}{
		{"NoPrune", core.NewGreedy()},
		{"LazyPrune", core.NewGreedyPrune()},
		{"LiteralPaperRule", &core.GreedySelector{
			Options: core.GreedyOptions{Prune: true, LiteralPaperRule: true}}},
	}
	for _, sc := range selectors {
		b.Run(sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := large[i%len(large)]
				if _, err := sc.sel.Select(in.Joint, 8, 0.8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPreprocess isolates the Section III-F preprocessing
// cost (O(|O|^2)) against the per-evaluation savings it buys.
func BenchmarkAblationPreprocess(b *testing.B) {
	_, large, _ := benchInstances(b)
	if len(large) == 0 {
		b.Skip("no large books")
	}
	in := large[0]
	b.Run("PreprocessOnly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Preprocess(in.Joint, 0.8); err != nil {
				b.Fatal(err)
			}
		}
	})
	tasks := []int{0, 1, 2, 3, 4, 5}
	b.Run("ExactEntropy/k=6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.TaskEntropy(in.Joint, tasks, 0.8); err != nil {
				b.Fatal(err)
			}
		}
	})
	pre, err := core.Preprocess(in.Joint, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("PreprocessedEntropy/k=6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pre.TaskEntropy(tasks); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSupportTruncation measures the cost/quality effect of
// truncating a dense support to its top-M worlds.
func BenchmarkAblationSupportTruncation(b *testing.B) {
	const n = 10
	marginals := make([]float64, n)
	for i := range marginals {
		marginals[i] = 0.35 + 0.3*float64(i)/float64(n-1)
	}
	full, err := dist.Independent(marginals)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{1 << n, 256, 64, 16} {
		j := full.Truncate(m)
		b.Run(fmt.Sprintf("support=%d", j.SupportSize()), func(b *testing.B) {
			sel := core.NewGreedyPrunePre()
			var h float64
			for i := 0; i < b.N; i++ {
				tasks, err := sel.Select(j, 4, 0.8)
				if err != nil {
					b.Fatal(err)
				}
				h, err = core.TaskEntropy(full, tasks, 0.8)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(h, "H(T)-on-full")
		})
	}
}

// --- Sweep parallelism ----------------------------------------------------

// BenchmarkSweepParallelism measures the wall-clock effect of stepping
// books across the bounded worker pool: Sequential forces one worker, Auto
// uses every CPU. Results are bit-identical either way (see
// eval.TestSweepParallelismLevelsIdentical); only the wall time may differ,
// by up to the core count on idle multi-core hardware.
func BenchmarkSweepParallelism(b *testing.B) {
	_, _, small := benchInstances(b)
	for _, mode := range []struct {
		name    string
		workers int
	}{
		{"Sequential", 1},
		{"Auto", 0},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.RunSweep(eval.SweepConfig{
					Instances:   small,
					Selector:    core.SelApproxFull,
					K:           2,
					Budget:      10,
					Pc:          0.8,
					Seed:        1,
					Parallelism: mode.workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Core micro-benchmarks -------------------------------------------------

func BenchmarkMergeAnswers(b *testing.B) {
	_, large, _ := benchInstances(b)
	if len(large) == 0 {
		b.Skip("no large books")
	}
	in := large[0]
	tasks := []int{0, 1, 2}
	answers := []bool{true, false, true}
	for i := 0; i < b.N; i++ {
		if _, err := core.MergeAnswers(in.Joint, tasks, answers, 0.8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFusionInitializers(b *testing.B) {
	d, _, _ := benchDataset(b)
	for _, m := range []fusion.Method{
		fusion.MajorityVote{}, fusion.NewCRH(), fusion.NewTruthFinder(), fusion.NewAccuVote(),
	} {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Fuse(d.Claims); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchDataset(b *testing.B) (*bookdata.Dataset, []*worlds.Instance, []*worlds.Instance) {
	b.Helper()
	benchInstances(b)
	return benchData.dataset, benchData.large, benchData.small
}
