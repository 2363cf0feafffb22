// Command experiments regenerates every table and figure of the
// CrowdFusion paper's evaluation (Section V) on the synthetic Book dataset:
//
//	experiments -exp tables1-4   # the running example (Tables I-IV)
//	experiments -exp table5      # one-round selection times of 5 approaches
//	experiments -exp fig2        # OPT vs Approx vs Random (k=2, B=10)
//	experiments -exp fig3        # k = 1..6 sweeps
//	experiments -exp fig4        # Pc = 0.7/0.8/0.9 sweeps
//	experiments -exp errors      # Section V-D residual-error taxonomy
//	experiments -exp query       # Section IV facts-of-interest extension
//	experiments -exp allocation  # Section V-D global-budget extension
//	experiments -exp calibration # reliability of the posterior marginals
//	experiments -exp all
//
// Sizes are scaled down by default so everything finishes in minutes; use
// -books/-sources/-budget/-repeats to approach the paper's scale.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"crowdfusion/internal/bookdata"
	"crowdfusion/internal/core"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/eval"
	"crowdfusion/internal/fusion"
	"crowdfusion/internal/worlds"
)

type options struct {
	books   int
	sources int
	seed    int64
	budget  int
	pc      float64
	csvDir  string
	repeats int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var opt options
	exp := flag.String("exp", "all", "tables1-4|table5|fig2|fig3|fig4|errors|query|allocation|calibration|all")
	flag.IntVar(&opt.books, "books", 100, "books in the generated dataset")
	flag.IntVar(&opt.sources, "sources", 40, "sources in the generated dataset")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for data generation and crowd simulation")
	flag.IntVar(&opt.budget, "budget", 60, "per-book budget (paper: 60)")
	flag.Float64Var(&opt.pc, "pc", 0.8, "crowd accuracy for single-Pc experiments")
	flag.StringVar(&opt.csvDir, "csv", "", "directory to also write CSV outputs into")
	flag.IntVar(&opt.repeats, "repeats", 1, "timing repetitions (Table V)")
	flag.Parse()

	runners := map[string]func(options) error{
		"tables1-4":   runTables14,
		"table5":      runTable5,
		"fig2":        runFig2,
		"fig3":        runFig3,
		"fig4":        runFig4,
		"errors":      runErrors,
		"query":       runQuery,
		"allocation":  runAllocation,
		"calibration": runCalibration,
	}
	names := []string{"tables1-4", "table5", "fig2", "fig3", "fig4", "errors",
		"query", "allocation", "calibration"}
	if *exp != "all" {
		r, ok := runners[*exp]
		if !ok {
			log.Fatalf("unknown experiment %q", *exp)
		}
		if err := r(opt); err != nil {
			log.Fatal(err)
		}
		return
	}
	for _, name := range names {
		if err := runners[name](opt); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println()
	}
}

// instances generates the dataset and builds per-book instances with the
// paper's modified-CRH initializer.
func instances(opt options) (*bookdata.Dataset, []*worlds.Instance, error) {
	cfg := bookdata.DefaultConfig()
	cfg.Books = opt.books
	cfg.Sources = opt.sources
	cfg.Seed = opt.seed
	d, err := bookdata.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	truths, err := fusion.NewCRH().Fuse(d.Claims)
	if err != nil {
		return nil, nil, err
	}
	ins, err := worlds.BuildAll(d, truths, worlds.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	return d, ins, nil
}

func subset(ins []*worlds.Instance, isbns []string) []*worlds.Instance {
	want := make(map[string]bool, len(isbns))
	for _, i := range isbns {
		want[i] = true
	}
	var out []*worlds.Instance
	for _, in := range ins {
		if want[in.ISBN] {
			out = append(out, in)
		}
	}
	return out
}

func csvFile(opt options, name string) (io.WriteCloser, error) {
	if opt.csvDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(opt.csvDir, 0o755); err != nil {
		return nil, err
	}
	return os.Create(filepath.Join(opt.csvDir, name))
}

// runTables14 prints the running example: Tables I-IV plus the greedy
// walkthrough of Section III-D.
func runTables14(options) error {
	facts, j := dist.RunningExample()

	fmt.Println("== Table I: facts with uncertainty ==")
	for i, f := range facts {
		m, err := j.Marginal(i)
		if err != nil {
			return err
		}
		fmt.Printf("  %s  %-45s P = %.2f\n", f.ID, f.String(), m)
	}

	fmt.Println("\n== Table II: output joint distribution ==")
	fmt.Println("  oid   f1 f2 f3 f4   P(o)")
	for i, w := range j.Worlds() {
		fmt.Printf("  o%-3d  %s   %.2f\n", i+1, w.FormatJudgments(4), j.Probs()[i])
	}

	fmt.Println("\n== Table III: fact entropy vs task entropy (Pc = 0.8) ==")
	fmt.Println("  T         H(facts)  H(T)")
	pairs := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	for _, p := range pairs {
		fh, err := j.FactEntropy(p)
		if err != nil {
			return err
		}
		th, err := core.TaskEntropy(j, p, 0.8)
		if err != nil {
			return err
		}
		fmt.Printf("  {f%d,f%d}   %.3f     %.3f\n", p[0]+1, p[1]+1, fh, th)
	}

	fmt.Println("\n== Table IV: answer joint distribution (all facts asked, Pc = 0.8) ==")
	pre, err := core.Preprocess(j, 0.8)
	if err != nil {
		return err
	}
	fmt.Println("  aid   f1 f2 f3 f4   P(a)")
	for i, w := range j.Worlds() {
		fmt.Printf("  a%-3d  %s   %.3f\n", i+1, w.FormatJudgments(4), pre.AnswerProb(i))
	}

	fmt.Println("\n== Greedy walkthrough (k = 2, Pc = 0.8) ==")
	sel := core.NewGreedy()
	tasks, err := sel.Select(j, 2, 0.8)
	if err != nil {
		return err
	}
	h, err := core.TaskEntropy(j, tasks, 0.8)
	if err != nil {
		return err
	}
	fmt.Printf("  selected tasks: f%d and f%d with H(T) = %.3f\n", tasks[0]+1, tasks[1]+1, h)

	fmt.Println("\n== Update example (ask f1, crowd answers yes, Pc = 0.8) ==")
	pe, err := j.AnswerSetProb([]int{0}, []bool{true}, 0.8)
	if err != nil {
		return err
	}
	post, err := j.Condition([]int{0}, []bool{true}, 0.8)
	if err != nil {
		return err
	}
	fmt.Printf("  P(e) = %.3f   P(o1|e) = %.3f   P(o9|e) = %.3f\n",
		pe, post.Prob(0), post.Prob(dist.World(0).Set(0, true)))
	return nil
}

// runTable5 measures one-round selection times of the five approaches on
// books with more than 20 facts, k = 1..10 (OPT to 3).
func runTable5(opt options) error {
	d, ins, err := instances(opt)
	if err != nil {
		return err
	}
	large := subset(ins, d.BooksWithAtLeast(21))
	if len(large) == 0 {
		return fmt.Errorf("no books with > 20 facts; increase -sources")
	}
	fmt.Printf("== Table V: one-round selection time (s), %d books with > 20 facts ==\n", len(large))
	res, err := eval.RunTimings(eval.TimingConfig{
		Instances: large,
		Ks:        []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		Selectors: []core.SelectorKind{core.SelOPT, core.SelApprox, core.SelApproxPrune,
			core.SelApproxPre, core.SelApproxFull},
		Pc:      opt.pc,
		MaxOptK: 3,
		Repeats: opt.repeats,
	})
	if err != nil {
		return err
	}
	if err := eval.RenderTimings(os.Stdout, res); err != nil {
		return err
	}
	if w, err := csvFile(opt, "table5.csv"); err != nil {
		return err
	} else if w != nil {
		defer w.Close()
		return eval.WriteTimingsCSV(w, res)
	}
	return nil
}

// runFig2 compares OPT, Approx and Random at k = 2, B = 10 on the 40 books
// with the fewest statements, for Pc in {0.7, 0.8, 0.9}.
func runFig2(opt options) error {
	d, ins, err := instances(opt)
	if err != nil {
		return err
	}
	nSmall := 40
	if nSmall > len(ins) {
		nSmall = len(ins)
	}
	small := subset(ins, d.SmallestBooks(nSmall))
	fmt.Printf("== Figure 2: OPT vs Approx vs Random (k=2, B=10, %d smallest books) ==\n", len(small))
	return runFigure(opt, figure{
		csv:       "fig2.csv",
		instances: small,
		ks:        []int{2},
		kinds:     []core.SelectorKind{core.SelOPT, core.SelApprox, core.SelRandom},
		budget:    10,
		line:      "  %-22s final: cost=%-5d F1=%.4f utility=%.2f\n",
	})
}

// runFig3 sweeps k = 1..6 for Approx and Random at each Pc.
func runFig3(opt options) error {
	_, ins, err := instances(opt)
	if err != nil {
		return err
	}
	fmt.Printf("== Figure 3: k settings (B=%d, %d books) ==\n", opt.budget, len(ins))
	return runFigure(opt, figure{
		csv:       "fig3.csv",
		instances: ins,
		ks:        []int{1, 2, 3, 4, 5, 6},
		kinds:     []core.SelectorKind{core.SelApproxPrune, core.SelRandom},
		budget:    opt.budget,
		line:      "  %-30s final: cost=%-6d F1=%.4f utility=%.2f\n",
	})
}

// runFig4 sweeps Pc in {0.7, 0.8, 0.9} at fixed k = 3.
func runFig4(opt options) error {
	_, ins, err := instances(opt)
	if err != nil {
		return err
	}
	fmt.Printf("== Figure 4: Pc settings (k=3, B=%d, %d books) ==\n", opt.budget, len(ins))
	return runFigure(opt, figure{
		csv:       "fig4.csv",
		instances: ins,
		ks:        []int{3},
		kinds:     []core.SelectorKind{core.SelApproxPrune, core.SelRandom},
		budget:    opt.budget,
		line:      "  %-22s final: cost=%-6d F1=%.4f utility=%.2f\n",
	})
}

// figure is one quality-vs-budget figure: a sweep per (pc, k, selector)
// cell over Pc in {0.7, 0.8, 0.9}.
type figure struct {
	csv       string
	instances []*worlds.Instance
	ks        []int
	kinds     []core.SelectorKind
	budget    int
	// line formats a cell's final point from its label, cost, F1 and
	// utility.
	line string
}

// runFigure sweeps every cell of f, prints each cell's final point and
// writes the curves to f.csv. A cell is labelled by its pc, its k when the
// figure sweeps k, and its selector.
func runFigure(opt options, f figure) error {
	curves := make(map[string][]eval.TracePoint)
	for _, pc := range []float64{0.7, 0.8, 0.9} {
		for _, k := range f.ks {
			for _, kind := range f.kinds {
				res, err := eval.RunSweep(eval.SweepConfig{
					Instances: f.instances,
					Selector:  kind,
					K:         k,
					Budget:    f.budget,
					Pc:        pc,
					Seed:      opt.seed,
				})
				if err != nil {
					return err
				}
				label := fmt.Sprintf("pc=%.1f/", pc)
				if len(f.ks) > 1 {
					label += fmt.Sprintf("k=%d/", k)
				}
				label += string(kind)
				curves[label] = res.Trace
				last := res.Trace[len(res.Trace)-1]
				fmt.Printf(f.line, label, last.Cost, last.F1, last.Utility)
			}
		}
	}
	w, err := csvFile(opt, f.csv)
	if err != nil || w == nil {
		return err
	}
	defer w.Close()
	return eval.WriteTraceCSV(w, curves)
}

// runErrors reproduces the Section V-D analysis: refine with statement
// difficulty switched on, then break residual errors down by class.
func runErrors(opt options) error {
	_, ins, err := instances(opt)
	if err != nil {
		return err
	}
	fmt.Printf("== Section V-D: residual errors by statement class (%d books) ==\n", len(ins))
	res, err := eval.RunSweep(eval.SweepConfig{
		Instances:     ins,
		Selector:      core.SelApproxPrune,
		K:             3,
		Budget:        opt.budget,
		Pc:            opt.pc,
		UseDifficulty: true,
		Seed:          opt.seed,
	})
	if err != nil {
		return err
	}
	breakdown, err := eval.AnalyzeErrors(ins, res.Joints)
	if err != nil {
		return err
	}
	fmt.Printf("final F1 with difficulty-aware crowd: %.4f\n", res.Final.F1())
	return eval.RenderErrorBreakdown(os.Stdout, breakdown)
}

// runQuery demonstrates the Section IV extension: when only a fraction of
// facts matter, the query-based selector reaches the same FOI quality with
// fewer tasks than the general selector.
func runQuery(opt options) error {
	_, ins, err := instances(opt)
	if err != nil {
		return err
	}
	fmt.Printf("== Section IV: query-based CrowdFusion (FOI = 30%% of facts, %d books) ==\n", len(ins))
	results := make(map[bool]*eval.QuerySweepResult)
	for _, useQuery := range []bool{false, true} {
		res, err := eval.RunQuerySweep(eval.QuerySweepConfig{
			Instances:        ins,
			FOIFraction:      0.3,
			UseQuerySelector: useQuery,
			K:                2,
			Budget:           opt.budget,
			Pc:               opt.pc,
			Seed:             opt.seed,
		})
		if err != nil {
			return err
		}
		results[useQuery] = res
	}
	// The Section IV advantage lives in the early-budget region: print
	// the first rounds side by side, then the finals.
	fmt.Printf("  %-8s %14s %14s\n", "round", "Approx FOI-F1", "Query FOI-F1")
	maxRounds := len(results[false].Trace)
	if l := len(results[true].Trace); l < maxRounds {
		maxRounds = l
	}
	if maxRounds > 6 {
		maxRounds = 6
	}
	for r := 0; r < maxRounds; r++ {
		fmt.Printf("  %-8d %14.4f %14.4f\n",
			r+1, results[false].Trace[r].F1, results[true].Trace[r].F1)
	}
	for _, useQuery := range []bool{false, true} {
		name := "Approx"
		if useQuery {
			name = "Query"
		}
		res := results[useQuery]
		last := res.Trace[len(res.Trace)-1]
		fmt.Printf("  final %-8s cost=%-6d FOI-F1=%.4f FOI-utility=%.2f\n",
			name, last.Cost, res.Final.F1(), last.Utility)
	}
	return nil
}

// runAllocation compares the paper's fixed per-book budget against the
// Section V-D suggestion of distributing a global budget across books.
func runAllocation(opt options) error {
	_, ins, err := instances(opt)
	if err != nil {
		return err
	}
	perBook := opt.budget / 4
	if perBook < 1 {
		perBook = 1
	}
	total := perBook * len(ins)
	fmt.Printf("== Section V-D extension: global budget allocation (%d tasks total, %d books) ==\n",
		total, len(ins))
	uniform, err := eval.RunSweep(eval.SweepConfig{
		Instances: ins,
		Selector:  core.SelApproxPrune,
		K:         1,
		Budget:    perBook,
		Pc:        opt.pc,
		Seed:      opt.seed,
	})
	if err != nil {
		return err
	}
	global, err := eval.RunAllocation(eval.AllocationConfig{
		Instances:   ins,
		TotalBudget: total,
		Pc:          opt.pc,
		Seed:        opt.seed,
	})
	if err != nil {
		return err
	}
	uLast := uniform.Trace[len(uniform.Trace)-1]
	fmt.Printf("  %-22s cost=%-6d F1=%.4f utility=%.2f\n",
		"uniform per-book", uLast.Cost, uniform.Final.F1(), uLast.Utility)
	fmt.Printf("  %-22s cost=%-6d F1=%.4f utility=%.2f\n",
		"global allocation", global.Cost, global.Final.F1(), global.Utility)
	min, max := global.PerBook[0], global.PerBook[0]
	for _, c := range global.PerBook {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	fmt.Printf("  per-book spread under global allocation: min=%d max=%d (uniform: %d each)\n",
		min, max, perBook)
	return nil
}

// runCalibration reports whether the refined marginals are honest
// probabilities: a reliability table before and after crowd refinement.
func runCalibration(opt options) error {
	_, ins, err := instances(opt)
	if err != nil {
		return err
	}
	priorJoints := make([]*dist.Joint, len(ins))
	for i, in := range ins {
		priorJoints[i] = in.Joint
	}
	before, err := eval.CalibrationReport(ins, priorJoints, 10)
	if err != nil {
		return err
	}
	res, err := eval.RunSweep(eval.SweepConfig{
		Instances: ins,
		Selector:  core.SelApproxPrune,
		K:         3,
		Budget:    opt.budget,
		Pc:        opt.pc,
		Seed:      opt.seed,
	})
	if err != nil {
		return err
	}
	after, err := eval.CalibrationReport(ins, res.Joints, 10)
	if err != nil {
		return err
	}
	fmt.Printf("== Calibration of posterior marginals (%d books) ==\n", len(ins))
	fmt.Println("machine-only prior:")
	if err := eval.RenderCalibration(os.Stdout, before); err != nil {
		return err
	}
	fmt.Println("\nafter CrowdFusion:")
	return eval.RenderCalibration(os.Stdout, after)
}
