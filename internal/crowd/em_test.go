package crowd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crowdfusion/internal/dist"
)

// plantAnswers simulates a redundant answer log: each of nTasks facts is
// answered by every worker, whose true accuracies are given. Truth is a
// []bool because task counts exceed the 64-fact World limit.
func plantAnswers(tb testing.TB, accuracies []float64, nTasks int, seed int64) ([]Answer, []bool) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	truth := make([]bool, nTasks)
	for f := range truth {
		truth[f] = rng.Intn(2) == 0
	}
	var log []Answer
	for f := 0; f < nTasks; f++ {
		for wi, acc := range accuracies {
			v := truth[f]
			if rng.Float64() >= acc {
				v = !v
			}
			log = append(log, Answer{Fact: f, Value: v, Worker: fmt.Sprintf("w%02d", wi)})
		}
	}
	return log, truth
}

func TestEstimateEMRecoverAccuracies(t *testing.T) {
	accuracies := []float64{0.95, 0.85, 0.75, 0.65, 0.9, 0.8, 0.7}
	log, _ := plantAnswers(t, accuracies, 400, 11)
	est, err := EstimateEM(log, EMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for wi, want := range accuracies {
		got := est.WorkerAccuracy[fmt.Sprintf("w%02d", wi)]
		if math.Abs(got-want) > 0.05 {
			t.Errorf("worker %d: estimated %.3f, true %.3f", wi, got, want)
		}
	}
	if est.Iterations <= 0 || est.Iterations > 100 {
		t.Errorf("iterations = %d", est.Iterations)
	}
	pool := est.PoolAccuracy()
	var want float64
	for _, a := range accuracies {
		want += a
	}
	want /= float64(len(accuracies))
	if math.Abs(pool-want) > 0.05 {
		t.Errorf("pool accuracy %.3f, want ~%.3f", pool, want)
	}
}

func TestEstimateEMRecoversTruth(t *testing.T) {
	accuracies := []float64{0.9, 0.9, 0.85, 0.8, 0.8}
	log, truth := plantAnswers(t, accuracies, 300, 13)
	est, err := EstimateEM(log, EMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for f := 0; f < 300; f++ {
		if (est.TaskPosterior[f] >= 0.5) == truth[f] {
			correct++
		}
	}
	rate := float64(correct) / 300
	if rate < 0.97 {
		t.Errorf("EM truth recovery rate %.3f, want >= 0.97", rate)
	}
}

// TestEstimateEMBeatsMajorityWeighting: EM-weighted inference must recover
// truth at least as well as unweighted majority voting when worker quality
// is heterogeneous.
func TestEstimateEMBeatsMajorityWeighting(t *testing.T) {
	// One excellent worker among four coin-flippers: majority voting is
	// barely better than chance, EM should learn to trust the expert.
	accuracies := []float64{0.97, 0.52, 0.52, 0.52, 0.52}
	log, truth := plantAnswers(t, accuracies, 500, 17)
	est, err := EstimateEM(log, EMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	emCorrect, mvCorrect := 0, 0
	byTask := make(map[int][]Answer)
	for _, a := range log {
		byTask[a.Fact] = append(byTask[a.Fact], a)
	}
	for f := 0; f < 500; f++ {
		if (est.TaskPosterior[f] >= 0.5) == truth[f] {
			emCorrect++
		}
		votes := 0
		for _, a := range byTask[f] {
			if a.Value {
				votes++
			}
		}
		if (votes*2 > len(byTask[f])) == truth[f] {
			mvCorrect++
		}
	}
	if emCorrect <= mvCorrect {
		t.Errorf("EM correct %d <= majority %d", emCorrect, mvCorrect)
	}
	// And the expert is identified as clearly better than the noise
	// workers (EM slightly shrinks extreme accuracies, so compare
	// against the flippers rather than the true 0.97).
	if est.WorkerAccuracy["w00"] < 0.75 {
		t.Errorf("expert estimated at %.3f", est.WorkerAccuracy["w00"])
	}
	for i := 1; i < 5; i++ {
		id := fmt.Sprintf("w%02d", i)
		if est.WorkerAccuracy["w00"] < est.WorkerAccuracy[id]+0.15 {
			t.Errorf("expert %.3f not separated from %s %.3f",
				est.WorkerAccuracy["w00"], id, est.WorkerAccuracy[id])
		}
	}
}

func TestEstimateEMValidation(t *testing.T) {
	if _, err := EstimateEM(nil, EMOptions{}); err != ErrNoAnswers {
		t.Errorf("empty log err = %v", err)
	}
	if _, err := EstimateEM([]Answer{{Fact: 0, Value: true}}, EMOptions{}); err == nil {
		t.Error("anonymous answer accepted")
	}
}

func TestEstimateEMDegenerate(t *testing.T) {
	// A single worker, single task: must not NaN or panic; accuracy is
	// unidentifiable and should stay within the clamps.
	log := []Answer{{Fact: 0, Value: true, Worker: "w"}}
	est, err := EstimateEM(log, EMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := est.WorkerAccuracy["w"]
	if math.IsNaN(a) || a < 0.05 || a > 0.99 {
		t.Errorf("degenerate accuracy %v", a)
	}
	if (&EMEstimate{}).PoolAccuracy() != 0 {
		t.Error("empty estimate pool accuracy should be 0")
	}
}

func TestEMOptionsDefaults(t *testing.T) {
	o := EMOptions{MaxIter: -1, Tol: -1, InitAccuracy: 2, ClampLo: -1, ClampHi: 2}.normalized()
	if o.MaxIter != 100 || o.Tol != 1e-6 || o.InitAccuracy != 0.7 ||
		o.ClampLo != 0.05 || o.ClampHi != 0.99 {
		t.Errorf("defaults not applied: %+v", o)
	}
}

// TestEMWithPlatformLog: EM consumes the platform simulator's answer log
// directly, closing the loop between the two subsystems.
func TestEMWithPlatformLog(t *testing.T) {
	// Build via the crowd-side pieces only to avoid an import cycle:
	// sample a pool manually with per-worker accuracies.
	pool, err := RandomPool(12, 0.7, 0.95, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var truth dist.World
	truth = truth.Set(1, true).Set(3, true)
	var log []Answer
	for round := 0; round < 400; round++ {
		for f := 0; f < 4; f++ {
			_, answers := pool.MajorityAnswer(rng, f, truth.Has(f), 3)
			log = append(log, answers...)
		}
	}
	est, err := EstimateEM(log, EMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every estimated accuracy should be within 0.1 of the worker's true
	// accuracy.
	for _, w := range pool.Workers() {
		got, ok := est.WorkerAccuracy[w.ID]
		if !ok {
			continue // may not have been drawn
		}
		if math.Abs(got-w.Accuracy) > 0.1 {
			t.Errorf("worker %s: estimated %.3f, true %.3f", w.ID, got, w.Accuracy)
		}
	}
}

// benchRefitLog is the observation log of an em or dawid-skene session
// after the given number of rounds: three judgments a round on 12 facts by
// 12 workers of planted accuracies 0.6–0.95, the shape of the service's
// restore benchmark.
func benchRefitLog(rounds int) []Answer {
	rng := rand.New(rand.NewSource(3))
	truth := make([]bool, 12)
	for i := range truth {
		truth[i] = rng.Intn(2) == 0
	}
	var log []Answer
	for r := 0; r < rounds; r++ {
		for _, f := range rng.Perm(len(truth))[:3] {
			w := rng.Intn(12)
			right := rng.Float64() < 0.6+0.35*float64(w)/11
			log = append(log, Answer{Fact: f, Value: truth[f] == right, Worker: fmt.Sprintf("w%02d", w)})
		}
	}
	return log
}

// BenchmarkEstimateEM times one refit of an em session's worker model over
// the log of 4, 16 or 64 rounds.
func BenchmarkEstimateEM(b *testing.B) {
	for _, rounds := range []int{4, 16, 64} {
		log := benchRefitLog(rounds)
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EstimateEM(log, EMOptions{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimateDawidSkene times one refit of a dawid-skene session's
// worker model, which runs on every merge, over the same logs.
func BenchmarkEstimateDawidSkene(b *testing.B) {
	for _, rounds := range []int{4, 16, 64} {
		log := benchRefitLog(rounds)
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EstimateDawidSkene(log, EMOptions{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEstimatorsRefuseCrossedClamps: both worker models refuse clamp
// bounds that cross once the defaults are applied, where the symmetric
// M-step would end every accuracy at ClampHi and Dawid–Skene's at
// ClampLo; bounds that meet, and the defaults, still fit.
func TestEstimatorsRefuseCrossedClamps(t *testing.T) {
	log := []Answer{
		{Fact: 0, Value: true, Worker: "a"}, {Fact: 0, Value: true, Worker: "b"},
		{Fact: 1, Value: false, Worker: "a"}, {Fact: 1, Value: true, Worker: "b"},
	}
	fits := map[string]func(EMOptions) error{
		"em": func(o EMOptions) error {
			_, err := EstimateEM(log, o)
			return err
		},
		"dawid-skene": func(o EMOptions) error {
			_, err := EstimateDawidSkene(log, o)
			return err
		},
	}
	for name, fit := range fits {
		for _, o := range []EMOptions{
			{ClampLo: 0.995, ClampHi: 0.99},
			{ClampLo: 0.995}, // ClampHi defaults to 0.99
			{ClampLo: 0.5, ClampHi: 0.2},
			{ClampLo: math.NaN()},
		} {
			if err := fit(o); !errors.Is(err, ErrClampOrder) {
				t.Errorf("%s, clamps [%v, %v]: err = %v, want ErrClampOrder", name, o.ClampLo, o.ClampHi, err)
			}
		}
		for _, o := range []EMOptions{{}, {ClampLo: 0.9, ClampHi: 0.9}} {
			if err := fit(o); err != nil {
				t.Errorf("%s, clamps [%v, %v]: %v", name, o.ClampLo, o.ClampHi, err)
			}
		}
	}
}
