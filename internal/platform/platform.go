// Package platform simulates a crowdsourcing platform in the style of
// gMission (Chen et al., VLDB 2014), which the paper uses for its
// empirical study: tasks are posted in rounds, pushed to a pool of
// anonymous workers, answered independently — optionally by several workers
// whose votes are aggregated by majority — and collected.
//
// The simulation is sequential and fully deterministic: every posted task
// draws its answers from its own RNG, seeded from the platform seed and the
// task's global sequence number, so a fresh platform given the same calls
// replays every answer. The draws themselves live in internal/crowd.
package platform

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"crowdfusion/internal/crowd"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/service"
)

// Source is the source string stamped on judgments emitted by the
// simulated platform.
const Source = "sim"

// Config describes the simulated platform.
type Config struct {
	// Truth is the hidden ground-truth judgment of every fact.
	Truth dist.World
	// Pool supplies the workers. Required.
	Pool *crowd.Pool
	// Redundancy is how many distinct workers answer each task; their
	// majority vote becomes the task's answer. New resolves it with
	// crowd.Pool.Redundancy, so 0 means 1.
	Redundancy int
	// Seed drives all randomness.
	Seed int64
	// PerTaskAccuracy overrides the workers' accuracy on specific facts
	// (hard statements per Section V-D). Optional.
	PerTaskAccuracy map[int]float64
}

// Platform is a simulated crowdsourcing platform. It satisfies the
// engine's AnswerProvider interface. Its methods may be called from several
// goroutines: each post runs to completion under the platform's mutex, so
// tasks take their sequence numbers in call order.
type Platform struct {
	cfg    Config
	mu     sync.Mutex
	posted int            // tasks posted; the next task's sequence number
	log    []crowd.Answer // every individual worker answer
}

// New validates the configuration and builds a platform.
func New(cfg Config) (*Platform, error) {
	if cfg.Pool == nil || cfg.Pool.Size() == 0 {
		return nil, errors.New("platform: worker pool required")
	}
	cfg.Redundancy = cfg.Pool.Redundancy(cfg.Redundancy)
	for f, pc := range cfg.PerTaskAccuracy {
		if pc < 0 || pc > 1 || math.IsNaN(pc) {
			return nil, fmt.Errorf("platform: per-task accuracy %v for fact %d out of [0,1]", pc, f)
		}
	}
	return &Platform{cfg: cfg}, nil
}

// Answers posts one round of tasks and returns the (majority-aggregated)
// judgment per task. It implements the CrowdFusion engine's AnswerProvider.
func (p *Platform) Answers(tasks []int) []bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]bool, len(tasks))
	var rng *rand.Rand
	for i, fact := range tasks {
		rng = p.next(rng)
		var answers []crowd.Answer
		truth := p.cfg.Truth.Has(fact)
		if acc, ok := p.cfg.PerTaskAccuracy[fact]; ok {
			out[i], answers = p.cfg.Pool.MajorityAnswer(rng, fact, truth, p.cfg.Redundancy, acc)
		} else {
			out[i], answers = p.cfg.Pool.MajorityAnswer(rng, fact, truth, p.cfg.Redundancy)
		}
		p.log = append(p.log, answers...)
	}
	return out
}

// Attributed returns a view of the platform that answers with attributed
// per-worker judgments instead of majority-aggregated booleans. The view
// implements the client's JudgmentProvider, so handing it to a Refine loop
// submits per-worker answers and lets sessions running an em or
// dawid-skene worker model learn each worker's accuracy from the loop's
// own traffic. It is a distinct type — not a method on Platform — so that
// existing majority-vote callers keep their AnswerProvider semantics;
// attribution is an explicit opt-in.
func (p *Platform) Attributed() *Attributed { return &Attributed{p: p} }

// Attributed is the judgment-emitting view of a Platform; see
// Platform.Attributed.
type Attributed struct{ p *Platform }

// Answers satisfies the plain AnswerProvider contract (which the client's
// Refine requires statically) with the same single-worker draws the
// judgments carry, minus the attribution. Consumers that detect
// JudgmentsContext never call it.
func (a *Attributed) Answers(tasks []int) []bool {
	js, err := a.JudgmentsContext(context.Background(), tasks)
	if err != nil { // unreachable: the background context never cancels
		panic(err)
	}
	out := make([]bool, len(js))
	for i, j := range js {
		out[i] = j.Answer
	}
	return out
}

// JudgmentsContext posts one round of tasks, each answered by a single
// worker drawn deterministically from the pool, and returns the attributed
// judgments. A context that is already done posts the tasks — they take
// their sequence numbers and count as posted — but draws and records no
// answer, and its error is returned.
//
// Unlike Answers, Redundancy does not apply here: the judgments form
// rejects duplicate tasks within one submission, and aggregating
// heterogeneous workers is the session's job (the weighted merge) rather
// than the platform's (majority vote). Every judgment is also recorded in
// the answer log, so Stats covers both modes.
func (a *Attributed) JudgmentsContext(ctx context.Context, tasks []int) ([]service.Judgment, error) {
	p := a.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := ctx.Err(); err != nil {
		p.posted += len(tasks)
		return nil, err
	}
	out := make([]service.Judgment, len(tasks))
	var rng *rand.Rand
	for i, fact := range tasks {
		rng = p.next(rng)
		w := p.cfg.Pool.Draw(rng)
		acc := w.Accuracy
		if override, ok := p.cfg.PerTaskAccuracy[fact]; ok {
			acc = override
		}
		v := crowd.Judge(rng, p.cfg.Truth.Has(fact), acc)
		out[i] = service.Judgment{Task: fact, Answer: v, Worker: w.ID, Source: Source}
		p.log = append(p.log, crowd.Answer{Fact: fact, Value: v, Worker: w.ID})
	}
	return out, nil
}

// next posts one task: it takes the task's sequence number and returns an
// RNG seeded from it and the platform seed alone. A non-nil rng is reseeded
// and returned, which draws exactly what a new one would. Callers hold p.mu.
func (p *Platform) next(rng *rand.Rand) *rand.Rand {
	seed := mix(p.cfg.Seed, int64(p.posted))
	p.posted++
	if rng == nil {
		return rand.New(rand.NewSource(seed))
	}
	rng.Seed(seed)
	return rng
}

// mix combines the platform seed and a sequence number into an RNG seed
// (splitmix64-style finalizer).
func mix(seed, seq int64) int64 {
	z := uint64(seed) ^ (uint64(seq)+0x9E3779B97F4A7C15)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}

// Posted returns the number of tasks posted so far — the platform-side
// budget counter.
func (p *Platform) Posted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.posted
}

// Log returns a copy of every individual worker answer recorded so far.
func (p *Platform) Log() []crowd.Answer {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]crowd.Answer(nil), p.log...)
}

// WorkerStats summarizes one worker's recorded performance.
type WorkerStats struct {
	Worker   string
	Answered int
	Correct  int
}

// Accuracy returns the worker's empirical accuracy (0 if unobserved).
func (s WorkerStats) Accuracy() float64 {
	if s.Answered == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Answered)
}

// Stats aggregates the answer log per worker, sorted by worker ID. Gold
// truth comes from the platform's configured truth world.
func (p *Platform) Stats() []WorkerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	tallies := crowd.Tally(p.log, p.cfg.Truth.Has)
	out := make([]WorkerStats, len(tallies))
	for i, t := range tallies {
		out[i] = WorkerStats{Worker: t.Worker, Answered: t.Support, Correct: t.Correct}
	}
	return out
}

// EstimatePc runs the paper's recommended pre-test (Section V-C3): post
// the given gold tasks to the platform and estimate the effective crowd
// accuracy from the answers.
func (p *Platform) EstimatePc(goldFacts []int) (float64, error) {
	if len(goldFacts) == 0 {
		return 0, errors.New("platform: no gold tasks")
	}
	answers := p.Answers(goldFacts)
	gold := make([]bool, len(goldFacts))
	for i, f := range goldFacts {
		gold[i] = p.cfg.Truth.Has(f)
	}
	return crowd.EstimatePc(gold, answers)
}
