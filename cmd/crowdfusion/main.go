// Command crowdfusion runs the end-to-end CrowdFusion pipeline
// (crowdfusion.Pipeline): generate (or load) a Book dataset, initialize
// with a machine-only fusion method, refine with a simulated crowd under a
// budget, and report quality before and after, with the Section V-D
// residual-error breakdown.
//
// Usage:
//
//	crowdfusion -books 100 -pc 0.8 -k 3 -budget 60 -selector Approx+Prune
//	crowdfusion -in books.json -fusion TruthFinder -difficulty
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"crowdfusion"
	"crowdfusion/internal/bookdata"
	"crowdfusion/internal/core"
	"crowdfusion/internal/eval"
	"crowdfusion/internal/fusion"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crowdfusion: ")

	var (
		in         = flag.String("in", "", "dataset JSON (generated if empty)")
		books      = flag.Int("books", 100, "books to generate when -in is empty")
		sources    = flag.Int("sources", 40, "sources to generate when -in is empty")
		seed       = flag.Int64("seed", 1, "seed for generation and simulation")
		fusionName = flag.String("fusion", "CRH", "initializer: MajorityVote|CRH|TruthFinder|AccuVote")
		selector   = flag.String("selector", "Approx+Prune", "task selector: OPT|Approx|Approx+Prune|Approx+Pre|Approx+Prune+Pre|Random")
		pc         = flag.Float64("pc", 0.8, "crowd accuracy in [0.5, 1]")
		k          = flag.Int("k", 3, "tasks per round per book")
		budget     = flag.Int("budget", 60, "task budget per book")
		difficulty = flag.Bool("difficulty", false, "simulate Section V-D statement difficulty")
	)
	flag.Parse()

	// Reject impossible configurations here, with the flag named, instead
	// of letting them surface rounds later as an opaque selection error.
	if err := validateFlags(*pc, *k, *budget); err != nil {
		log.Fatal(err)
	}

	d, err := loadOrGenerate(*in, *books, *sources, *seed)
	if err != nil {
		log.Fatal(err)
	}
	method, err := fusionByName(*fusionName)
	if err != nil {
		log.Fatal(err)
	}
	out, err := crowdfusion.Pipeline{
		Dataset:       d,
		Fusion:        method,
		Options:       crowdfusion.DefaultWorldOptions(),
		Selector:      crowdfusion.SelectorKind(*selector),
		K:             *k,
		Budget:        *budget,
		Pc:            *pc,
		UseDifficulty: *difficulty,
		Seed:          *seed,
	}.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("dataset: %d books, %d statements, %d claims (gold rate %.3f)\n",
		len(d.Books), d.StatementCount(), len(d.Claims), d.GoldRate())
	fmt.Printf("initializer: %s   selector: %s   Pc=%.2f k=%d budget=%d/book\n\n",
		method.Name(), *selector, *pc, *k, *budget)
	fmt.Printf("%-22s %10s %10s %10s %12s\n", "", "precision", "recall", "F1", "utility")
	fmt.Printf("%-22s %10.4f %10.4f %10.4f %12.2f\n",
		"machine-only prior", out.Prior.Precision(), out.Prior.Recall(), out.Prior.F1(), out.PriorU)
	final, last := out.Sweep.Final, out.Sweep.Trace[len(out.Sweep.Trace)-1]
	fmt.Printf("%-22s %10.4f %10.4f %10.4f %12.2f   (cost %d tasks)\n\n",
		"after CrowdFusion", final.Precision(), final.Recall(), final.F1(),
		last.Utility, last.Cost)

	breakdown, err := eval.AnalyzeErrors(out.Instances, out.Sweep.Joints)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("residual errors by statement class (Section V-D):")
	if err := eval.RenderErrorBreakdown(os.Stdout, breakdown); err != nil {
		log.Fatal(err)
	}
}

// validateFlags enforces the documented invariants at flag-parse time:
// selection and merging assume a better-than-coin-flip crowd (pc ∈
// [0.5, 1], the invariant the core kernel's channel weights rely on), and
// a round cannot ask more tasks than the whole budget allows.
func validateFlags(pc float64, k, budget int) error {
	if pc < 0.5 || pc > 1 || math.IsNaN(pc) {
		return fmt.Errorf("-pc %v outside [0.5, 1]: the crowd model needs a better-than-coin-flip accuracy", pc)
	}
	if k <= 0 {
		return fmt.Errorf("-k %d must be positive", k)
	}
	if k > core.MaxTasksPerRound {
		return fmt.Errorf("-k %d exceeds the per-round limit %d (selection cost grows as 2^k)",
			k, core.MaxTasksPerRound)
	}
	if budget <= 0 {
		return fmt.Errorf("-budget %d must be positive", budget)
	}
	if k > budget {
		return fmt.Errorf("-k %d exceeds -budget %d: one round would overspend the whole budget", k, budget)
	}
	return nil
}

func loadOrGenerate(path string, books, sources int, seed int64) (*bookdata.Dataset, error) {
	if path != "" {
		return bookdata.LoadFile(path)
	}
	cfg := bookdata.DefaultConfig()
	cfg.Books = books
	cfg.Sources = sources
	cfg.Seed = seed
	return bookdata.Generate(cfg)
}

func fusionByName(name string) (fusion.Method, error) {
	switch name {
	case "MajorityVote":
		return fusion.MajorityVote{}, nil
	case "CRH":
		return fusion.NewCRH(), nil
	case "TruthFinder":
		return fusion.NewTruthFinder(), nil
	case "AccuVote":
		return fusion.NewAccuVote(), nil
	default:
		return nil, fmt.Errorf("unknown fusion method %q", name)
	}
}
