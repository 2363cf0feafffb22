package platform

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"crowdfusion/internal/crowd"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/service"
)

// This file keeps the platform as it was before it posted tasks
// sequentially: one goroutine per task behind a semaphore of Parallelism
// slots, a separate sequence counter, and its own copies of the majority
// and single-worker draws. TestPlatformMatchesReference requires the
// platform to reproduce it bit for bit.

type refPlatform struct {
	cfg         Config
	parallelism int
	mu          sync.Mutex
	seq         int
	posted      int
	log         []crowd.Answer
}

func newRefPlatform(cfg Config, parallelism int) *refPlatform {
	if cfg.Redundancy < 1 {
		cfg.Redundancy = 1
	}
	if cfg.Redundancy > cfg.Pool.Size() {
		cfg.Redundancy = cfg.Pool.Size()
	}
	if cfg.Redundancy%2 == 0 {
		cfg.Redundancy--
	}
	if parallelism <= 0 {
		parallelism = 8
	}
	return &refPlatform{cfg: cfg, parallelism: parallelism}
}

func (p *refPlatform) Answers(tasks []int) []bool {
	p.mu.Lock()
	baseSeq := p.seq
	p.seq += len(tasks)
	p.posted += len(tasks)
	p.mu.Unlock()

	out := make([]bool, len(tasks))
	logs := make([][]crowd.Answer, len(tasks))
	sem := make(chan struct{}, p.parallelism)
	var wg sync.WaitGroup
	for i, fact := range tasks {
		wg.Add(1)
		go func(slot, fact, seq int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[slot], logs[slot] = p.answerOne(fact, seq)
		}(i, fact, baseSeq+i)
	}
	wg.Wait()

	p.mu.Lock()
	for _, l := range logs {
		p.log = append(p.log, l...)
	}
	p.mu.Unlock()
	return out
}

func (p *refPlatform) attributedAnswers(tasks []int) []bool {
	js, err := p.JudgmentsContext(context.Background(), tasks)
	if err != nil {
		panic(err)
	}
	out := make([]bool, len(js))
	for i, j := range js {
		out[i] = j.Answer
	}
	return out
}

func (p *refPlatform) JudgmentsContext(ctx context.Context, tasks []int) ([]service.Judgment, error) {
	p.mu.Lock()
	baseSeq := p.seq
	p.seq += len(tasks)
	p.posted += len(tasks)
	p.mu.Unlock()

	out := make([]service.Judgment, len(tasks))
	sem := make(chan struct{}, p.parallelism)
	var wg sync.WaitGroup
	for i, fact := range tasks {
		wg.Add(1)
		go func(slot, fact, seq int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			defer func() { <-sem }()
			out[slot] = p.judgeOne(fact, seq)
		}(i, fact, baseSeq+i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	p.mu.Lock()
	for _, j := range out {
		p.log = append(p.log, crowd.Answer{Fact: j.Task, Value: j.Answer, Worker: j.Worker})
	}
	p.mu.Unlock()
	return out, nil
}

func (p *refPlatform) judgeOne(fact, seq int) service.Judgment {
	rng := rand.New(rand.NewSource(mix(p.cfg.Seed, int64(seq))))
	truth := p.cfg.Truth.Has(fact)

	w := p.cfg.Pool.Workers()[rng.Intn(p.cfg.Pool.Size())]
	acc := w.Accuracy
	if override, ok := p.cfg.PerTaskAccuracy[fact]; ok {
		acc = override
	}
	v := truth
	if rng.Float64() >= acc {
		v = !truth
	}
	return service.Judgment{Task: fact, Answer: v, Worker: w.ID, Source: Source}
}

func (p *refPlatform) answerOne(fact, seq int) (bool, []crowd.Answer) {
	rng := rand.New(rand.NewSource(mix(p.cfg.Seed, int64(seq))))
	truth := p.cfg.Truth.Has(fact)
	override, hasOverride := p.cfg.PerTaskAccuracy[fact]

	workers := p.cfg.Pool.Workers()
	perm := rng.Perm(len(workers))[:p.cfg.Redundancy]
	answers := make([]crowd.Answer, 0, p.cfg.Redundancy)
	votesTrue := 0
	for _, wi := range perm {
		w := workers[wi]
		acc := w.Accuracy
		if hasOverride {
			acc = override
		}
		v := truth
		if rng.Float64() >= acc {
			v = !truth
		}
		if v {
			votesTrue++
		}
		answers = append(answers, crowd.Answer{Fact: fact, Value: v, Worker: w.ID})
	}
	return votesTrue*2 > p.cfg.Redundancy, answers
}

func (p *refPlatform) Stats() []WorkerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	byWorker := make(map[string]*WorkerStats)
	for _, a := range p.log {
		st, ok := byWorker[a.Worker]
		if !ok {
			st = &WorkerStats{Worker: a.Worker}
			byWorker[a.Worker] = st
		}
		st.Answered++
		if a.Value == p.cfg.Truth.Has(a.Fact) {
			st.Correct++
		}
	}
	out := make([]WorkerStats, 0, len(byWorker))
	for _, st := range byWorker {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// TestPlatformMatchesReference drives the platform and the reference with
// the same configuration and the same mixed calls, and requires the same
// answers, judgments, log, stats and posted count after every call. It
// covers pool sizes 1–16, every Redundancy from -1 to 9 (even ones and ones
// above the pool size included), per-task accuracies of 0, 1 and in
// between, and judgment calls whose context is already cancelled.
func TestPlatformMatchesReference(t *testing.T) {
	const facts = 10
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(1))
	for size := 1; size <= 16; size++ {
		for red := -1; red <= 9; red++ {
			for variant := 0; variant < 2; variant++ {
				lo := 0.5 + 0.5*rng.Float64()
				pool, err := crowd.RandomPool(size, lo, lo+(1-lo)*rng.Float64(), rng.Int63())
				if err != nil {
					t.Fatal(err)
				}
				var perTask map[int]float64
				if variant == 1 {
					perTask = make(map[int]float64)
					for f := 0; f < facts; f++ {
						switch rng.Intn(4) {
						case 0:
							perTask[f] = 0
						case 1:
							perTask[f] = 1
						case 2:
							perTask[f] = rng.Float64()
						}
					}
				}
				cfg := Config{
					Truth:           dist.World(rng.Intn(1 << facts)),
					Pool:            pool,
					Redundancy:      red,
					Seed:            rng.Int63(),
					PerTaskAccuracy: perTask,
				}
				name := fmt.Sprintf("size=%d/redundancy=%d/variant=%d", size, red, variant)
				p, err := New(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ref := newRefPlatform(cfg, 1+rng.Intn(8))
				for call := 0; call < 20; call++ {
					tasks := make([]int, rng.Intn(6))
					for i := range tasks {
						tasks[i] = rng.Intn(facts)
					}
					var got, want any
					switch kind := rng.Intn(4); kind {
					case 0:
						got, want = p.Answers(tasks), ref.Answers(tasks)
					case 1:
						got, want = p.Attributed().Answers(tasks), ref.attributedAnswers(tasks)
					default:
						ctx := context.Background()
						if kind == 3 {
							ctx = cancelled
						}
						js, err := p.Attributed().JudgmentsContext(ctx, tasks)
						rjs, rerr := ref.JudgmentsContext(ctx, tasks)
						if err != rerr {
							t.Fatalf("%s call %d: error %v, reference %v", name, call, err, rerr)
						}
						got, want = js, rjs
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s call %d on %v: got %v, reference %v", name, call, tasks, got, want)
					}
					if p.Posted() != ref.posted {
						t.Fatalf("%s call %d: posted %d, reference %d", name, call, p.Posted(), ref.posted)
					}
					if !reflect.DeepEqual(p.Log(), append([]crowd.Answer(nil), ref.log...)) {
						t.Fatalf("%s call %d: log differs from the reference", name, call)
					}
				}
				if got, want := p.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: stats %v, reference %v", name, got, want)
				}
			}
		}
	}
}
