package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdfusion/internal/core"
	"crowdfusion/internal/dist"
)

// testSession builds a session over the paper's running example with the
// full greedy selector.
func testSession(t *testing.T, k, budget int) *Session {
	t.Helper()
	_, j := dist.RunningExample()
	return newSession("s1", j, core.NewGreedyPrunePre(), "Approx+Prune+Pre",
		0.8, k, budget, time.Unix(0, 0))
}

func TestSessionSelectCaching(t *testing.T) {
	s := testSession(t, 2, 6)
	now := time.Unix(1, 0)

	first, cached, err := s.Select(context.Background(), now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first select reported cached")
	}
	if len(first.Tasks) != 2 || first.Version != 0 {
		t.Fatalf("unexpected first batch %+v", first)
	}

	second, cached, err := s.Select(context.Background(), now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || !second.Cached {
		t.Fatal("repeat select did not hit the cache")
	}
	if !reflect.DeepEqual(second.Tasks, first.Tasks) || second.TaskEntropy != first.TaskEntropy {
		t.Fatalf("cached batch differs: %+v vs %+v", second, first)
	}

	// A different k misses the cache.
	third, cached, err := s.Select(context.Background(), now, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("k-override select reported cached")
	}
	if len(third.Tasks) != 1 {
		t.Fatalf("k=1 select returned %d tasks", len(third.Tasks))
	}

	// A merge invalidates the cache: the next select is recomputed
	// against the new posterior version.
	if _, err := s.Merge(context.Background(), now, &AnswersRequest{Tasks: first.Tasks, Answers: []bool{true, true}}); err != nil {
		t.Fatal(err)
	}
	fourth, cached, err := s.Select(context.Background(), now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("post-merge select served stale cache")
	}
	if fourth.Version != 1 {
		t.Fatalf("post-merge select version = %d, want 1", fourth.Version)
	}
}

func TestSessionMergeIdempotency(t *testing.T) {
	s := testSession(t, 2, 6)
	now := time.Unix(1, 0)
	sel, _, err := s.Select(context.Background(), now, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := sel.Version
	req := &AnswersRequest{Tasks: sel.Tasks, Answers: []bool{true, false}, Version: &v}

	first, err := s.Merge(context.Background(), now, req)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Merged || first.Spent != 2 || first.Version != 1 {
		t.Fatalf("first merge state %+v", first.SessionInfo)
	}

	// Retry with the same body: replayed, not reapplied.
	replay, err := s.Merge(context.Background(), now, req)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Merged {
		t.Fatal("retry was re-applied")
	}
	if replay.Spent != 2 || replay.Version != 1 {
		t.Fatalf("replay mutated state: %+v", replay.SessionInfo)
	}
	if math.Abs(replay.Entropy-first.Entropy) > 0 {
		t.Fatalf("replay entropy %v != first %v", replay.Entropy, first.Entropy)
	}

	// Retry without a version: matched by content.
	replay2, err := s.Merge(context.Background(), now, &AnswersRequest{Tasks: sel.Tasks, Answers: []bool{true, false}})
	if err != nil {
		t.Fatal(err)
	}
	if replay2.Merged || replay2.Spent != 2 {
		t.Fatalf("versionless retry re-applied: %+v", replay2.SessionInfo)
	}

	// A different answer set at a stale version conflicts.
	stale := &AnswersRequest{Tasks: sel.Tasks, Answers: []bool{false, true}, Version: &v}
	if _, err := s.Merge(context.Background(), now, stale); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("stale-version merge error = %v, want ErrVersionConflict", err)
	}
}

// TestVersionlessRetryWhileLedgerOpen: a versionless resubmission of a
// committed answer set replays even while the next round's ledger is open —
// whether the next batch is different (the retry names tasks outside it) or
// the selector re-picked the very same tasks (k = n, where the retry would
// otherwise complete the ledger and commit a second round). Either way:
// Merged=false, no spend, no version bump, and the ledger untouched.
func TestVersionlessRetryWhileLedgerOpen(t *testing.T) {
	for _, tc := range []struct {
		name   string
		k      int
		repick bool
	}{
		{"different batch", 2, false},
		{"re-picked batch", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			now := time.Unix(1, 0)
			s := testSession(t, tc.k, 12)
			first, _, err := s.Select(ctx, now, 0)
			if err != nil {
				t.Fatal(err)
			}
			committed := &AnswersRequest{Tasks: first.Tasks, Answers: answersFor(first.Tasks)}
			if resp, err := s.Merge(ctx, now, committed); err != nil || !resp.Merged {
				t.Fatalf("first commit: %+v, %v", resp, err)
			}
			next, _, err := s.Select(ctx, now, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := reflect.DeepEqual(next.Tasks, first.Tasks); got != tc.repick {
				t.Fatalf("fixture: batches %v then %v, want re-picked=%v", first.Tasks, next.Tasks, tc.repick)
			}
			submitOne(t, s, now, next.Tasks[0], true, next.Version)
			before := s.Info(context.Background(), now, true)

			resp, err := s.Merge(ctx, now, cloneAnswers(committed))
			if err != nil {
				t.Fatalf("versionless retry: %v", err)
			}
			if resp.Merged || resp.Partial {
				t.Fatalf("versionless retry was applied: merged=%v partial=%v", resp.Merged, resp.Partial)
			}
			after := s.Info(context.Background(), now, true)
			if after.Spent != before.Spent || after.Version != before.Version {
				t.Fatalf("retry moved spent %d→%d, version %d→%d",
					before.Spent, after.Spent, before.Version, after.Version)
			}
			if !reflect.DeepEqual(after.Pending, before.Pending) {
				t.Fatalf("retry changed the ledger:\n before %+v\n after  %+v", before.Pending, after.Pending)
			}
		})
	}
}

func TestSessionBudgetEnforcement(t *testing.T) {
	s := testSession(t, 2, 3)
	now := time.Unix(1, 0)

	sel, _, err := s.Select(context.Background(), now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Merge(context.Background(), now, &AnswersRequest{Tasks: sel.Tasks, Answers: []bool{true, true}}); err != nil {
		t.Fatal(err)
	}

	// 1 of 3 budget left: the next batch is clamped to one task.
	sel2, _, err := s.Select(context.Background(), now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel2.Tasks) > 1 {
		t.Fatalf("select ignored remaining budget: %d tasks", len(sel2.Tasks))
	}

	// Merging more than the remaining budget is rejected.
	over := &AnswersRequest{Tasks: []int{0, 1}, Answers: []bool{false, false}}
	if _, err := s.Merge(context.Background(), now, over); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-budget merge error = %v, want ErrBudgetExhausted", err)
	}

	if len(sel2.Tasks) == 1 {
		if _, err := s.Merge(context.Background(), now, &AnswersRequest{Tasks: sel2.Tasks, Answers: []bool{true}}); err != nil {
			t.Fatal(err)
		}
	}
	final, _, err := s.Select(context.Background(), now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done || len(final.Tasks) != 0 {
		t.Fatalf("exhausted session still selecting: %+v", final)
	}
	info := s.Info(context.Background(), now, true)
	if !info.Done || info.Spent > info.Budget {
		t.Fatalf("final info %+v", info)
	}
	if len(info.Rounds) != info.Version {
		t.Fatalf("%d rounds but version %d", len(info.Rounds), info.Version)
	}
}

func TestSessionDoneLatchOnCertainPosterior(t *testing.T) {
	// A single-world prior is certain: selection finds nothing uncertain,
	// so the first select latches Done with zero tasks and zero spend.
	j, err := dist.New(3, []dist.World{0b101}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	s := newSession("s2", j, core.NewGreedyPrunePre(), "Approx+Prune+Pre",
		0.8, 2, 10, time.Unix(0, 0))
	sel, _, err := s.Select(context.Background(), time.Unix(1, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Tasks) != 0 || !sel.Done {
		t.Fatalf("certain posterior selected %+v", sel)
	}
	info := s.Info(context.Background(), time.Unix(1, 0), false)
	if !info.Done || info.Spent != 0 {
		t.Fatalf("info %+v", info)
	}
}

// TestSessionMergeClearsDoneLatch: an out-of-band merge after a
// nothing-uncertain select must un-latch Done — the new posterior may be
// uncertain again, so the next select has to consult the selector instead
// of replaying the stale verdict.
func TestSessionMergeClearsDoneLatch(t *testing.T) {
	s := testSession(t, 2, 10)
	now := time.Unix(1, 0)
	s.mu.Lock()
	s.run.Done = true // as if a previous sweep found nothing uncertain
	s.mu.Unlock()

	sel, _, err := s.Select(context.Background(), now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Done || len(sel.Tasks) != 0 {
		t.Fatalf("latched session still selecting: %+v", sel)
	}
	if _, err := s.Merge(context.Background(), now, &AnswersRequest{Tasks: []int{0}, Answers: []bool{false}}); err != nil {
		t.Fatal(err)
	}
	after, _, err := s.Select(context.Background(), now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if after.Done || len(after.Tasks) == 0 {
		t.Fatalf("done latch survived a merge: %+v", after)
	}
	if after.Version != 1 {
		t.Fatalf("post-merge select version %d, want 1", after.Version)
	}
}

func TestSessionMergeValidatesEvidence(t *testing.T) {
	s := testSession(t, 2, 6)
	now := time.Unix(1, 0)
	for name, req := range map[string]*AnswersRequest{
		"out of range": {Tasks: []int{99}, Answers: []bool{true}},
		"duplicate":    {Tasks: []int{1, 1}, Answers: []bool{true, true}},
		"mismatched":   {Tasks: []int{0, 1}, Answers: []bool{true}},
	} {
		if _, err := s.Merge(context.Background(), now, req); err == nil {
			t.Errorf("%s: invalid merge accepted", name)
		}
	}
	// Failed merges must not advance state.
	if info := s.Info(context.Background(), now, false); info.Version != 0 || info.Spent != 0 {
		t.Fatalf("failed merges mutated state: %+v", info)
	}
}

// TestSessionMatchesEngine replays a session against core.Engine: the same
// prior, selector, crowd answers and budget must produce bit-identical
// posteriors, because the session routes through the same TaskEntropy /
// MergeAnswers kernel.
func TestSessionMatchesEngine(t *testing.T) {
	_, prior := dist.RunningExample()
	answer := func(tasks []int) []bool {
		out := make([]bool, len(tasks))
		for i, f := range tasks {
			out[i] = f%2 == 0 // deterministic scripted crowd
		}
		return out
	}

	eng := &core.Engine{
		Prior:    prior,
		Selector: core.NewGreedyPrunePre(),
		Crowd:    answerFunc(answer),
		Pc:       0.8,
		K:        2,
		Budget:   6,
	}
	want, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	s := newSession("s3", prior.Clone(), core.NewGreedyPrunePre(), "Approx+Prune+Pre",
		0.8, 2, 6, time.Unix(0, 0))
	now := time.Unix(1, 0)
	for {
		sel, _, err := s.Select(context.Background(), now, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Done || len(sel.Tasks) == 0 {
			break
		}
		v := sel.Version
		if _, err := s.Merge(context.Background(), now, &AnswersRequest{Tasks: sel.Tasks, Answers: answer(sel.Tasks), Version: &v}); err != nil {
			t.Fatal(err)
		}
	}

	got := s.Posterior()
	if got.SupportSize() != want.Final.SupportSize() {
		t.Fatalf("support %d != engine %d", got.SupportSize(), want.Final.SupportSize())
	}
	for i, w := range want.Final.Worlds() {
		if got.Worlds()[i] != w {
			t.Fatalf("world %d: %v != %v", i, got.Worlds()[i], w)
		}
		if got.Probs()[i] != want.Final.Probs()[i] {
			t.Fatalf("prob %d: %v != %v", i, got.Probs()[i], want.Final.Probs()[i])
		}
	}
	if info := s.Info(context.Background(), now, false); info.Spent != want.Cost {
		t.Fatalf("spent %d != engine cost %d", info.Spent, want.Cost)
	}
}

// answerFunc adapts a function to core.AnswerProvider.
type answerFunc func(tasks []int) []bool

func (f answerFunc) Answers(tasks []int) []bool { return f(tasks) }

// mixedSessions builds n standalone sessions over distinct product priors,
// mixing pc and k across sessions.
func mixedSessions(t *testing.T, n int) []*Session {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	pcs := []float64{0.7, 0.8, 0.9}
	ks := []int{2, 3, 4}
	sessions := make([]*Session, n)
	for i := range sessions {
		m := make([]float64, 10)
		for f := range m {
			m[f] = 0.2 + 0.6*rng.Float64()
		}
		j, err := dist.Independent(m)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = newSession(fmt.Sprintf("s%d", i), j, core.NewGreedyPrunePre(),
			"Approx+Prune+Pre", pcs[i%len(pcs)], ks[i%len(ks)], 1<<30, time.Unix(0, 0))
	}
	return sessions
}

// TestConcurrentSelectBitIdentical: concurrent Session.Select calls on
// different sessions each return exactly the batch the session's own
// selector computes sequentially. Under -race this also checks that
// concurrent sweeps on different sessions share no mutable state.
func TestConcurrentSelectBitIdentical(t *testing.T) {
	sessions := mixedSessions(t, 12)
	want := make([][]int, len(sessions))
	for i, s := range sessions {
		tasks, err := s.selector.Select(s.Posterior(), s.k, s.run.Pc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = tasks
	}

	for rep := 0; rep < 3; rep++ {
		for _, s := range sessions {
			s.mu.Lock()
			s.sel = nil // defeat the cache so every rep recomputes
			s.mu.Unlock()
		}
		var wg sync.WaitGroup
		got := make([][]int, len(sessions))
		errs := make([]error, len(sessions))
		for i, s := range sessions {
			wg.Add(1)
			go func(i int, s *Session) {
				defer wg.Done()
				resp, _, err := s.Select(context.Background(), time.Unix(1, 0), 0)
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = resp.Tasks
			}(i, s)
		}
		wg.Wait()
		for i := range sessions {
			if errs[i] != nil {
				t.Fatalf("rep %d session %d: %v", rep, i, errs[i])
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("rep %d session %d: concurrent select %v != sequential %v",
					rep, i, got[i], want[i])
			}
		}
	}
}

// countingSelector counts the greedy sweeps a session runs.
type countingSelector struct {
	core.Selector
	sweeps atomic.Int64
}

func (c *countingSelector) Select(j *dist.Joint, k int, pc float64) ([]int, error) {
	c.sweeps.Add(1)
	return c.Selector.Select(j, k, pc)
}

// TestConcurrentSelectSameSession checks concurrent selects against ONE
// session: the sweep holds the session mutex, so the first caller runs it
// exactly once and every other caller is served its cached batch at the
// same version.
func TestConcurrentSelectSameSession(t *testing.T) {
	s := mixedSessions(t, 1)[0]
	want, err := s.selector.Select(s.Posterior(), s.k, s.run.Pc)
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingSelector{Selector: s.selector}
	s.selector = counter

	const callers = 8
	var wg sync.WaitGroup
	resps := make([]*SelectResponse, callers)
	var uncached atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, cached, err := s.Select(context.Background(), time.Unix(1, 0), 0)
			if err != nil {
				t.Error(err)
				return
			}
			resps[i] = resp
			if !cached {
				uncached.Add(1)
			}
		}(i)
	}
	wg.Wait()
	for i, resp := range resps {
		if resp == nil {
			t.Fatalf("caller %d: no response", i)
		}
		if !reflect.DeepEqual(resp.Tasks, want) || resp.Version != 0 {
			t.Fatalf("caller %d: got %v at v%d, want %v at v0", i, resp.Tasks, resp.Version, want)
		}
	}
	if n := counter.sweeps.Load(); n != 1 {
		t.Fatalf("%d callers ran %d sweeps; want exactly 1 per (version, k)", callers, n)
	}
	if n := uncached.Load(); n != 1 {
		t.Fatalf("%d callers got an uncached batch; want exactly 1", n)
	}
}
