package service

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestResidentHeapPerSession bounds the heap a resident session keeps
// after refinement rounds. Each 12-fact posterior is 32 KiB of
// probabilities and every earlier one is dead, so a session should cost
// about one posterior plus a few hundred bytes of journal, ledger and
// event state per round. Anything that keeps dead posteriors reachable
// — a shared header allocation, a cached selection, an idempotency or
// event log holding a Joint — multiplies that and breaks the bound.
//
// The Random selector keeps the rounds cheap under -race; selection
// state is per call, so the greedy selectors keep nothing more.
func TestResidentHeapPerSession(t *testing.T) {
	const sessions, rounds, bound = 256, 10, 128 << 10
	ctx := context.Background()
	now := time.Unix(1000, 0)
	m := newManager(Config{Clock: func() time.Time { return now }})
	defer m.Close()
	refine := func(seed int64, n int) error {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			marginals := make([]float64, 12)
			for f := range marginals {
				marginals[f] = 0.3 + 0.4*rng.Float64()
			}
			s, err := m.Create(ctx, &CreateSessionRequest{Marginals: marginals, Pc: 0.8, K: 3, Budget: 1 << 20, Selector: "Random"})
			if err != nil {
				return err
			}
			for r := 0; r < rounds; r++ {
				sel, _, err := s.Select(ctx, now, 0)
				if err != nil {
					return err
				}
				answers := make([]bool, len(sel.Tasks))
				for a := range answers {
					answers[a] = rng.Intn(2) == 0
				}
				req := &AnswersRequest{Tasks: sel.Tasks, Answers: answers, Version: at(sel.Version)}
				if resp, err := s.Merge(ctx, now, req); err != nil || !resp.Merged {
					return fmt.Errorf("session %s round %d: %+v, %v", s.ID(), r, resp, err)
				}
			}
		}
		return nil
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	workers := min(runtime.GOMAXPROCS(0), 4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := sessions / workers
			if w < sessions%workers {
				n++
			}
			if err := refine(int64(w+1), n); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / sessions
	t.Logf("%d sessions × %d rounds: %.1f KiB heap per session", sessions, rounds, float64(per)/1024)
	if per > bound {
		t.Errorf("resident session holds %.1f KiB of heap, want under %d KiB", float64(per)/1024, bound>>10)
	}
	runtime.KeepAlive(m)
}
