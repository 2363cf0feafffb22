package platform

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"crowdfusion/internal/core"
	"crowdfusion/internal/crowd"
	"crowdfusion/internal/dist"
)

func testPool(tb testing.TB, accuracy float64) *crowd.Pool {
	tb.Helper()
	p, err := crowd.RandomPool(20, accuracy, accuracy, 5)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing pool accepted")
	}
	pool := testPool(t, 0.8)
	for _, pc := range []float64{2, math.NaN()} {
		if _, err := New(Config{Pool: pool, PerTaskAccuracy: map[int]float64{0: pc}}); err == nil {
			t.Errorf("bad per-task accuracy %v accepted", pc)
		}
	}
	p, err := New(Config{Pool: pool, Redundancy: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.Redundancy != 3 {
		t.Errorf("even redundancy not rounded down to odd: %d", p.cfg.Redundancy)
	}
	p, err = New(Config{Pool: pool, Redundancy: 99})
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.Redundancy > pool.Size() {
		t.Errorf("redundancy %d exceeds pool %d", p.cfg.Redundancy, pool.Size())
	}
}

func TestAnswersDeterministic(t *testing.T) {
	truth := dist.World(0b1010101)
	mk := func() *Platform {
		p, err := New(Config{Truth: truth, Pool: testPool(t, 0.8), Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	tasks := []int{0, 1, 2, 3, 4, 5, 6, 0, 1, 2}
	a := mk().Answers(tasks)
	b := mk().Answers(tasks)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed platforms diverged at task %d", i)
		}
	}
}

func TestAnswersAccuracy(t *testing.T) {
	truth := dist.World(0b0101)
	p, err := New(Config{Truth: truth, Pool: testPool(t, 0.8), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4000
	correct, total := 0, 0
	for r := 0; r < rounds; r++ {
		tasks := []int{0, 1, 2, 3}
		ans := p.Answers(tasks)
		for i, f := range tasks {
			if ans[i] == truth.Has(f) {
				correct++
			}
			total++
		}
	}
	rate := float64(correct) / float64(total)
	if math.Abs(rate-0.8) > 0.01 {
		t.Errorf("platform accuracy = %v, want ~0.8", rate)
	}
	if p.Posted() != total {
		t.Errorf("Posted = %d, want %d", p.Posted(), total)
	}
}

// TestRedundancyBoostsAccuracy: majority aggregation over 5 workers at 0.8
// should approach the analytic 0.942.
func TestRedundancyBoostsAccuracy(t *testing.T) {
	truth := dist.World(0b1)
	p, err := New(Config{Truth: truth, Pool: testPool(t, 0.8), Seed: 7, Redundancy: 5})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 20000
	correct := 0
	for r := 0; r < rounds; r++ {
		if p.Answers([]int{0})[0] == true {
			correct++
		}
	}
	rate := float64(correct) / rounds
	want := crowd.MajorityAccuracy(0.8, 5)
	if math.Abs(rate-want) > 0.01 {
		t.Errorf("redundant accuracy = %v, want ~%v", rate, want)
	}
	// The log holds every individual answer: 5 per task.
	if got := len(p.Log()); got != rounds*5 {
		t.Errorf("log has %d answers, want %d", got, rounds*5)
	}
}

func TestPerTaskOverride(t *testing.T) {
	truth := dist.World(0b1)
	p, err := New(Config{
		Truth: truth, Pool: testPool(t, 0.95), Seed: 13,
		PerTaskAccuracy: map[int]float64{0: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 20000
	correct := 0
	for r := 0; r < rounds; r++ {
		if p.Answers([]int{0})[0] == true {
			correct++
		}
	}
	rate := float64(correct) / rounds
	if math.Abs(rate-0.4) > 0.01 {
		t.Errorf("hard-task accuracy = %v, want ~0.4", rate)
	}
}

func TestConcurrentSafety(t *testing.T) {
	truth := dist.World(0b11110000)
	p, err := New(Config{Truth: truth, Pool: testPool(t, 0.9), Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				p.Answers([]int{0, 1, 2, 3, 4, 5, 6, 7})
			}
		}()
	}
	wg.Wait()
	if p.Posted() != 8*50*8 {
		t.Errorf("Posted = %d, want %d", p.Posted(), 8*50*8)
	}
	if len(p.Log()) != p.Posted() {
		t.Errorf("log %d != posted %d at redundancy 1", len(p.Log()), p.Posted())
	}
}

func TestStats(t *testing.T) {
	truth := dist.World(0b1)
	p, err := New(Config{Truth: truth, Pool: testPool(t, 0.85), Seed: 19, Redundancy: 3})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 500; r++ {
		p.Answers([]int{0})
	}
	stats := p.Stats()
	if len(stats) == 0 {
		t.Fatal("no worker stats")
	}
	var answered int
	for _, s := range stats {
		answered += s.Answered
		if s.Answered > 0 {
			acc := s.Accuracy()
			if acc < 0.6 || acc > 1 {
				t.Errorf("worker %s empirical accuracy %v far from 0.85", s.Worker, acc)
			}
		}
	}
	if answered != 1500 {
		t.Errorf("stats cover %d answers, want 1500", answered)
	}
	if (WorkerStats{}).Accuracy() != 0 {
		t.Error("empty stats accuracy should be 0")
	}
}

// TestEstimatePc: the pre-test recovers the pool's effective accuracy.
func TestEstimatePc(t *testing.T) {
	truth := dist.World(0b110011)
	p, err := New(Config{Truth: truth, Pool: testPool(t, 0.86), Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	gold := make([]int, 3000)
	for i := range gold {
		gold[i] = i % 6
	}
	est, err := p.EstimatePc(gold)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-0.86) > 0.02 {
		t.Errorf("estimated Pc = %v, want ~0.86", est)
	}
	if _, err := p.EstimatePc(nil); err == nil {
		t.Error("empty gold set accepted")
	}
}

// TestPlatformDrivesEngine: the platform satisfies core.AnswerProvider and
// runs a full CrowdFusion loop.
func TestPlatformDrivesEngine(t *testing.T) {
	probs := []float64{0.05, 0.1, 0.1, 0.15, 0.1, 0.1, 0.2, 0.2}
	j, err := dist.Dense(3, probs)
	if err != nil {
		t.Fatal(err)
	}
	truth := dist.World(0b110)
	p, err := New(Config{Truth: truth, Pool: testPool(t, 0.9), Seed: 29, Redundancy: 3})
	if err != nil {
		t.Fatal(err)
	}
	var _ core.AnswerProvider = p
	eng := core.Engine{
		Prior:    j,
		Selector: core.NewGreedy(),
		Crowd:    p,
		Pc:       crowd.MajorityAccuracy(0.9, 3),
		K:        2,
		Budget:   10,
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Prob(truth) <= j.Prob(truth) {
		t.Errorf("truth world did not gain mass: %v -> %v",
			j.Prob(truth), res.Final.Prob(truth))
	}
}

func TestMixSpreads(t *testing.T) {
	seen := make(map[int64]bool)
	for i := int64(0); i < 1000; i++ {
		v := mix(42, i)
		if v < 0 {
			t.Fatalf("mix produced negative seed %d", v)
		}
		if seen[v] {
			t.Fatalf("mix collision at %d", i)
		}
		seen[v] = true
	}
}

// BenchmarkPlatformRound posts one 3-task round to a platform shaped like
// the load generator's crowd: twelve workers at accuracies evenly spaced
// over 0.70–0.95, Redundancy 3. Majority answers as fixed sessions ask for
// them; Attributed judgments as em sessions do.
func BenchmarkPlatformRound(b *testing.B) {
	workers := make([]crowd.Worker, 12)
	for i := range workers {
		workers[i] = crowd.Worker{
			ID:       fmt.Sprintf("w%02d", i),
			Accuracy: 0.7 + 0.25*float64(i)/float64(len(workers)-1),
		}
	}
	pool, err := crowd.NewPool(workers)
	if err != nil {
		b.Fatal(err)
	}
	tasks := []int{1, 4, 7}
	newPlatform := func(b *testing.B) *Platform {
		p, err := New(Config{Truth: dist.World(0b10110010), Pool: pool, Redundancy: 3, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	b.Run("Majority", func(b *testing.B) {
		p := newPlatform(b)
		b.ReportAllocs()
		for b.Loop() {
			p.Answers(tasks)
		}
	})
	b.Run("Attributed", func(b *testing.B) {
		a := newPlatform(b).Attributed()
		ctx := context.Background()
		b.ReportAllocs()
		for b.Loop() {
			if _, err := a.JudgmentsContext(ctx, tasks); err != nil {
				b.Fatal(err)
			}
		}
	})
}
