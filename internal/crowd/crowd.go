// Package crowd implements the crowdsourcing model of Section II-B of the
// CrowdFusion paper: workers answer true/false judgment tasks independently
// with accuracy Pc ∈ [0.5, 1], so each answer is a Bernoulli sample whose
// success probability is Pc when the underlying fact is true and 1-Pc when
// it is false.
//
// Beyond the paper's shared-accuracy model the package provides the pieces a
// real deployment needs and the paper describes in passing: heterogeneous
// worker pools, redundancy with majority aggregation, accuracy estimation
// from a small set of gold (ground-truth) sample tasks, and the per-statement
// difficulty classes from the paper's error analysis (Section V-D).
package crowd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"crowdfusion/internal/dist"
)

var (
	// ErrAccuracyRange is returned when an accuracy lies outside [0.5, 1].
	ErrAccuracyRange = errors.New("crowd: accuracy must be in [0.5, 1]")
	// ErrNoWorkers is returned by pool operations on an empty pool.
	ErrNoWorkers = errors.New("crowd: pool has no workers")
	// ErrNoGold is returned when estimating accuracy with no gold tasks.
	ErrNoGold = errors.New("crowd: no gold tasks to estimate from")
)

// Answer is a single crowd judgment of one fact.
type Answer struct {
	Fact   int    // fact index the task asked about
	Value  bool   // the crowd's true/false judgment
	Worker string // identifier of the answering worker ("" for aggregate answers)
}

// Model is the paper's Definition 2 crowd: a single shared accuracy Pc.
// Answers to distinct tasks are independent.
type Model struct {
	Pc float64
}

// NewModel validates and returns a crowd model with accuracy pc.
func NewModel(pc float64) (Model, error) {
	if pc < 0.5 || pc > 1 || math.IsNaN(pc) {
		return Model{}, ErrAccuracyRange
	}
	return Model{Pc: pc}, nil
}

// Sample returns one crowd judgment of a fact whose ground truth is truth:
// correct with probability Pc, flipped otherwise.
func (m Model) Sample(rng *rand.Rand, truth bool) bool { return Judge(rng, truth, m.Pc) }

// Judge draws one judgment of a fact whose ground truth is truth by a worker
// of accuracy acc: correct with probability acc, flipped otherwise. It uses
// one rng.Float64. Model, Simulator, Pool and the platform simulator draw
// every crowd answer with it.
func Judge(rng *rand.Rand, truth bool, acc float64) bool {
	if rng.Float64() < acc {
		return truth
	}
	return !truth
}

// Entropy returns H(Crowd) from Equation 1 of the paper.
func (m Model) Entropy() float64 {
	p := m.Pc
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// Simulator produces crowd answers for tasks against a hidden ground-truth
// world, standing in for a live platform such as gMission. The base accuracy
// applies to every task unless a per-task override is present (used to model
// the hard statement classes of Section V-D, whose observed correct rates
// hover near or below 0.5).
type Simulator struct {
	Truth    dist.World      // hidden ground-truth judgment of every fact
	Base     Model           // shared crowd accuracy
	PerTask  map[int]float64 // optional per-fact accuracy overrides
	rng      *rand.Rand
	askCount int
}

// NewSimulator builds a deterministic simulator from a seed.
func NewSimulator(truth dist.World, pc float64, seed int64) (*Simulator, error) {
	m, err := NewModel(pc)
	if err != nil {
		return nil, err
	}
	return &Simulator{
		Truth: truth,
		Base:  m,
		rng:   rand.New(rand.NewSource(seed)),
	}, nil
}

// SetTaskAccuracy overrides the accuracy for a single fact's task. Unlike
// the pool-level model, overrides may dip below 0.5 — the paper observed
// misspelled author lists answered correctly less than half the time.
func (s *Simulator) SetTaskAccuracy(fact int, pc float64) error {
	if pc < 0 || pc > 1 || math.IsNaN(pc) {
		return fmt.Errorf("crowd: task accuracy %v out of [0,1]", pc)
	}
	if s.PerTask == nil {
		s.PerTask = make(map[int]float64)
	}
	s.PerTask[fact] = pc
	return nil
}

// accuracyFor returns the effective accuracy used for a fact's task.
func (s *Simulator) accuracyFor(fact int) float64 {
	if pc, ok := s.PerTask[fact]; ok {
		return pc
	}
	return s.Base.Pc
}

// Answers asks the simulated crowd the given tasks and returns one judgment
// per task. Every call consumes randomness; answers across calls and across
// tasks are independent, matching Definition 2.
func (s *Simulator) Answers(tasks []int) []bool {
	out := make([]bool, len(tasks))
	for i, f := range tasks {
		out[i] = Judge(s.rng, s.Truth.Has(f), s.accuracyFor(f))
		s.askCount++
	}
	return out
}

// Asked returns the total number of task answers produced so far (the cost
// counter used by the budget experiments).
func (s *Simulator) Asked() int { return s.askCount }

// Worker is one crowd member with an individual accuracy.
type Worker struct {
	ID       string
	Accuracy float64
}

// Pool is a set of workers from which task assignments are drawn.
type Pool struct {
	workers []Worker
}

// NewPool validates worker accuracies and builds a pool.
func NewPool(workers []Worker) (*Pool, error) {
	if len(workers) == 0 {
		return nil, ErrNoWorkers
	}
	for _, w := range workers {
		if w.Accuracy < 0.5 || w.Accuracy > 1 || math.IsNaN(w.Accuracy) {
			return nil, fmt.Errorf("%w: worker %q has accuracy %v",
				ErrAccuracyRange, w.ID, w.Accuracy)
		}
	}
	p := &Pool{workers: append([]Worker(nil), workers...)}
	sort.Slice(p.workers, func(i, j int) bool { return p.workers[i].ID < p.workers[j].ID })
	return p, nil
}

// RandomPool generates size workers whose accuracies are drawn uniformly
// from [lo, hi] ⊆ [0.5, 1], deterministically from the seed.
func RandomPool(size int, lo, hi float64, seed int64) (*Pool, error) {
	if size <= 0 {
		return nil, ErrNoWorkers
	}
	if lo < 0.5 || hi > 1 || lo > hi {
		return nil, ErrAccuracyRange
	}
	rng := rand.New(rand.NewSource(seed))
	workers := make([]Worker, size)
	for i := range workers {
		workers[i] = Worker{
			ID:       fmt.Sprintf("w%03d", i),
			Accuracy: lo + rng.Float64()*(hi-lo),
		}
	}
	return NewPool(workers)
}

// Size returns the number of workers.
func (p *Pool) Size() int { return len(p.workers) }

// Workers returns the pool's workers sorted by ID. The slice is shared;
// callers must not modify it.
func (p *Pool) Workers() []Worker { return p.workers }

// Draw picks one worker uniformly at random.
func (p *Pool) Draw(rng *rand.Rand) Worker {
	return p.workers[rng.Intn(len(p.workers))]
}

// MeanAccuracy returns the average worker accuracy — the effective shared Pc
// if every task is answered by one uniformly drawn worker.
func (p *Pool) MeanAccuracy() float64 {
	var sum float64
	for _, w := range p.workers {
		sum += w.Accuracy
	}
	return sum / float64(len(p.workers))
}

// Redundancy returns how many distinct workers a majority vote asked for r
// answers uses: r clamped to [1, pool size], then an even count rounded
// down to odd (4 → 3), so the vote never ties.
func (p *Pool) Redundancy(r int) int {
	r = max(1, min(r, len(p.workers)))
	if r%2 == 0 {
		r--
	}
	return r
}

// MajorityAnswer assigns the task to Redundancy(r) distinct randomly drawn
// workers and returns the majority judgment along with the individual
// answers. Each worker answers with their own accuracy, or with acc[0] when
// it is given: a per-task override such as the hard statements of Section
// V-D, which leaves the draw of workers unchanged.
func (p *Pool) MajorityAnswer(rng *rand.Rand, fact int, truth bool, r int, acc ...float64) (bool, []Answer) {
	r = p.Redundancy(r)
	perm := rng.Perm(len(p.workers))[:r]
	answers := make([]Answer, r)
	votes := 0
	for i, wi := range perm {
		w := p.workers[wi]
		pc := w.Accuracy
		if len(acc) > 0 {
			pc = acc[0]
		}
		v := Judge(rng, truth, pc)
		answers[i] = Answer{Fact: fact, Value: v, Worker: w.ID}
		if v == truth {
			votes++
		}
	}
	// Majority of r answers; ties impossible since r is odd.
	if votes*2 > r {
		return truth, answers
	}
	return !truth, answers
}

// MajorityAccuracy returns the analytic accuracy of a majority vote over r
// independent answers each with accuracy pc: the probability that more than
// half of r Bernoulli(pc) trials succeed. Unlike Pool.Redundancy, it rounds
// an even r up to odd (2 → 3).
func MajorityAccuracy(pc float64, r int) float64 {
	if r < 1 {
		r = 1
	}
	if r%2 == 0 {
		r++
	}
	need := r/2 + 1
	var total float64
	for k := need; k <= r; k++ {
		total += binomPMF(r, k, pc)
	}
	return total
}

// binomPMF returns C(n,k) p^k (1-p)^(n-k) computed in log space for
// stability.
func binomPMF(n, k int, p float64) float64 {
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lg := lnChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(lg)
}

func lnChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lgN, _ := math.Lgamma(float64(n + 1))
	lgK, _ := math.Lgamma(float64(k + 1))
	lgNK, _ := math.Lgamma(float64(n - k + 1))
	return lgN - lgK - lgNK
}

// EstimatePc estimates crowd accuracy from gold sample tasks: answers[i] is
// the crowd's judgment of a task whose known truth is gold[i]. A Laplace
// (add-one) smoothed rate is returned, clamped into the model's legal range
// [0.5, 1]. The paper recommends exactly this pre-test against ground truth
// before choosing Pc (Section V-C3).
func EstimatePc(gold, answers []bool) (float64, error) {
	if len(gold) == 0 && len(answers) == 0 {
		return 0, ErrNoGold
	}
	if len(gold) != len(answers) {
		return 0, fmt.Errorf("crowd: %d gold labels but %d answers", len(gold), len(answers))
	}
	correct := 0
	for i := range gold {
		if gold[i] == answers[i] {
			correct++
		}
	}
	est := (float64(correct) + 1) / (float64(len(gold)) + 2)
	if est < 0.5 {
		est = 0.5
	}
	if est > 1 {
		est = 1
	}
	return est, nil
}

// WilsonInterval returns the Wilson score interval for the true accuracy
// given correct successes out of total trials at ~95% confidence. It is the
// interval a deployment would report next to the point estimate.
//
// Zero support (total <= 0) is total ignorance: the interval is [0, 1],
// never NaN. Inconsistent counts are clamped into 0 <= correct <= total
// rather than poisoning the square root below with a negative operand.
func WilsonInterval(correct, total int) (lo, hi float64) {
	if total <= 0 {
		return 0, 1
	}
	if correct < 0 {
		correct = 0
	}
	if correct > total {
		correct = total
	}
	const z = 1.96
	n := float64(total)
	phat := float64(correct) / n
	denom := 1 + z*z/n
	center := (phat + z*z/(2*n)) / denom
	half := z * math.Sqrt(phat*(1-phat)/n+z*z/(4*n*n)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
