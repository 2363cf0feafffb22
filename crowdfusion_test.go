package crowdfusion

import (
	"errors"
	"math"
	"testing"
)

// TestFacadeRunningExample drives the paper's running example end to end
// through the public API only.
func TestFacadeRunningExample(t *testing.T) {
	probs := []float64{
		0.03, 0.04, 0.09, 0.06, 0.07, 0.04, 0.11, 0.07,
		0.06, 0.04, 0.01, 0.09, 0.04, 0.05, 0.09, 0.11,
	}
	// Dense ordering: world w has bit 0 = f1 ... bit 3 = f4. The
	// probabilities above are Table II re-indexed to that order (the
	// paper lists rows with f4 as the fastest-changing judgment).
	j, err := DenseJoint(4, probs)
	if err != nil {
		t.Fatal(err)
	}
	m := j.Marginals()
	want := []float64{0.5, 0.63, 0.58, 0.49}
	for i := range want {
		if math.Abs(m[i]-want[i]) > 1e-9 {
			t.Fatalf("marginal %d = %v, want %v (re-indexing wrong)", i, m[i], want[i])
		}
	}

	sel := NewGreedySelector(GreedyOptions{Prune: true})
	tasks, err := sel.Select(j, 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 || tasks[0] != 0 || tasks[1] != 3 {
		t.Fatalf("selection = %v, want [0 3]", tasks)
	}
	h, err := TaskEntropy(j, tasks, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-1.997) > 1e-3 {
		t.Errorf("H(T) = %v, want 1.997", h)
	}
	gain, err := UtilityGain(j, tasks, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if gain <= 0 {
		t.Errorf("utility gain %v should be positive", gain)
	}

	post, err := MergeAnswers(j, []int{0}, []bool{true}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := post.Marginal(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pm-0.8) > 1e-9 {
		t.Errorf("posterior P(f1) = %v, want 0.8", pm)
	}
}

func TestFacadeConstructors(t *testing.T) {
	if _, err := UniformJoint(3); err != nil {
		t.Error(err)
	}
	if _, err := IndependentJoint([]float64{0.4, 0.6}); err != nil {
		t.Error(err)
	}
	if _, err := NewJoint(2, []World{0, 3}, []float64{0.5, 0.5}); err != nil {
		t.Error(err)
	}
	if NewOptSelector().Name() != "OPT" {
		t.Error("OPT selector name")
	}
	if NewRandomSelector(1).Name() != "Random" {
		t.Error("random selector name")
	}
	if NewQuerySelector([]int{0}).Name() != "QueryApprox" {
		t.Error("query selector name")
	}
	for _, m := range []FusionMethod{NewMajorityVote(), NewCRH(), NewTruthFinder(), NewAccuVote()} {
		if m.Name() == "" {
			t.Error("fusion method without name")
		}
	}
}

func TestFacadeEngineWithSimulator(t *testing.T) {
	j, err := IndependentJoint([]float64{0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var truth World
	truth = truth.Set(0, true).Set(2, true)
	sim, err := NewCrowdSimulator(truth, 0.95, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{
		Prior:    j,
		Selector: NewGreedySelector(GreedyOptions{Prune: true, Preprocess: true}),
		Crowd:    sim,
		Pc:       0.95,
		K:        2,
		Budget:   12,
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	judgments := res.Judgments()
	correct := 0
	for i, v := range judgments {
		if v == truth.Has(i) {
			correct++
		}
	}
	if correct < 2 {
		t.Errorf("only %d/3 facts correct with a 0.95 crowd", correct)
	}
}

func TestFacadePcEstimation(t *testing.T) {
	gold := []bool{true, false, true, false, true, true, false, false}
	est, err := EstimateCrowdAccuracy(gold, gold)
	if err != nil {
		t.Fatal(err)
	}
	if est < 0.8 {
		t.Errorf("perfect answers estimated at %v", est)
	}
}

// TestFacadePipeline runs the full generate-fuse-refine pipeline through
// the facade.
func TestFacadePipeline(t *testing.T) {
	cfg := DefaultBookConfig()
	cfg.Books = 6
	cfg.Sources = 10
	cfg.Seed = 11
	d, err := GenerateBooks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Pipeline{
		Dataset:  d,
		Fusion:   NewCRH(),
		Options:  DefaultWorldOptions(),
		Selector: SelApproxPrune,
		K:        2,
		Budget:   16,
		Pc:       0.9,
		Seed:     5,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 6 {
		t.Fatalf("instances = %d", len(res.Instances))
	}
	if res.Sweep.Final.F1() < res.Prior.F1() {
		t.Errorf("pipeline F1 %v below prior %v", res.Sweep.Final.F1(), res.Prior.F1())
	}
	if res.PriorU >= 0 {
		t.Errorf("prior utility %v should be negative", res.PriorU)
	}
}

func TestFacadePlatform(t *testing.T) {
	pool, err := NewWorkerPool(10, 0.85, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	var truth World
	truth = truth.Set(1, true)
	p, err := NewPlatform(PlatformConfig{Truth: truth, Pool: pool, Seed: 2, Redundancy: 3})
	if err != nil {
		t.Fatal(err)
	}
	ans := p.Answers([]int{0, 1})
	if len(ans) != 2 {
		t.Fatalf("answers = %v", ans)
	}
	var _ AnswerProvider = p
}

func TestFacadeScoreAndSweep(t *testing.T) {
	m, err := ScoreJudgments([]bool{true, false}, []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	if m.TP != 1 || m.FN != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if _, err := Preprocess(nil, 0.3); err == nil {
		t.Error("bad accuracy accepted by Preprocess")
	}
}

// TestFacadeEstimatorsRefuseCrossedClamps: the facade's worker-model
// estimators pass EMOptions through unchanged, so both refuse a ClampLo
// above ClampHi instead of clamping the two models to different ends.
func TestFacadeEstimatorsRefuseCrossedClamps(t *testing.T) {
	log := []CrowdAnswer{
		{Fact: 0, Value: true, Worker: "a"}, {Fact: 0, Value: true, Worker: "b"},
		{Fact: 1, Value: false, Worker: "a"}, {Fact: 1, Value: true, Worker: "b"},
	}
	crossed := EMOptions{ClampLo: 0.995, ClampHi: 0.99}
	if _, err := EstimateWorkerAccuracies(log, crossed); !errors.Is(err, ErrClampOrder) {
		t.Errorf("EstimateWorkerAccuracies: err = %v, want ErrClampOrder", err)
	}
	if _, err := EstimateWorkerConfusion(log, crossed); !errors.Is(err, ErrClampOrder) {
		t.Errorf("EstimateWorkerConfusion: err = %v, want ErrClampOrder", err)
	}
}
