package core

import (
	"errors"
	"testing"

	"crowdfusion/internal/crowd"
	"crowdfusion/internal/dist"
)

// recordingSelector wraps a selector and records the k each round asked for.
type recordingSelector struct {
	inner Selector
	ks    []int
}

func (r *recordingSelector) Name() string { return r.inner.Name() }

func (r *recordingSelector) Select(j *dist.Joint, k int, pc float64) ([]int, error) {
	r.ks = append(r.ks, k)
	return r.inner.Select(j, k, pc)
}

// scriptedSelector returns canned batches, then empties.
type scriptedSelector struct {
	batches [][]int
	calls   int
}

func (s *scriptedSelector) Name() string { return "Scripted" }

func (s *scriptedSelector) Select(j *dist.Joint, k int, pc float64) ([]int, error) {
	if s.calls >= len(s.batches) {
		return nil, nil
	}
	b := s.batches[s.calls]
	s.calls++
	if len(b) > k {
		b = b[:k]
	}
	return append([]int(nil), b...), nil
}

// countingProvider counts crowd calls while answering a fixed value.
type countingProvider struct {
	calls int
	tasks int
}

func (c *countingProvider) Answers(tasks []int) []bool {
	c.calls++
	c.tasks += len(tasks)
	return make([]bool, len(tasks))
}

// TestEngineBudgetClampsFinalRound: when the budget is exhausted mid-round,
// the selector must be handed the clamped k — the remaining budget — not
// the configured round size, so no round can be selected that could not be
// paid for.
func TestEngineBudgetClampsFinalRound(t *testing.T) {
	// Uniform over 6 facts: plenty of uncertainty, so only the budget
	// stops the run.
	j, err := dist.Uniform(6)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := crowd.NewSimulator(dist.World(0b101010), 0.8, 11)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingSelector{inner: NewGreedyPrunePre()}
	eng := Engine{Prior: j, Selector: rec, Crowd: sim, Pc: 0.8, K: 4, Budget: 10}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 10 {
		t.Fatalf("cost %d, want the whole budget 10", res.Cost)
	}
	// Rounds of 4, 4, then a final clamped round of 2.
	want := []int{4, 4, 2}
	if len(rec.ks) != len(want) {
		t.Fatalf("selector saw k sequence %v, want %v", rec.ks, want)
	}
	for i, k := range want {
		if rec.ks[i] != k {
			t.Fatalf("round %d: selector asked for k=%d, want %d (ks %v)", i+1, rec.ks[i], k, rec.ks)
		}
	}
	if last := res.Rounds[len(res.Rounds)-1]; len(last.Tasks) != 2 || last.CumCost != 10 {
		t.Fatalf("final round %+v, want 2 tasks ending at cum cost 10", last)
	}
}

// TestEngineZeroTaskSelectStops: a selector that returns no tasks ends the
// run immediately — no crowd call, no phantom round, budget unspent.
func TestEngineZeroTaskSelectStops(t *testing.T) {
	j := paperJoint(t)
	sel := &scriptedSelector{batches: [][]int{{0, 1}}} // one real round, then empty
	crowdCalls := &countingProvider{}
	eng := Engine{Prior: j, Selector: sel, Crowd: crowdCalls, Pc: 0.8, K: 2, Budget: 20}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 1 || res.Cost != 2 {
		t.Fatalf("rounds %d cost %d, want exactly the one scripted round of 2", len(res.Rounds), res.Cost)
	}
	if crowdCalls.calls != 1 || crowdCalls.tasks != 2 {
		t.Fatalf("crowd called %d times for %d tasks; the empty select must not reach the crowd",
			crowdCalls.calls, crowdCalls.tasks)
	}
	if res.Final == nil {
		t.Fatal("early stop lost the posterior")
	}
}

// TestEngineCertainPriorCostsNothing: a single-world (zero-entropy) prior
// makes greedy return an empty batch on round one, so the run completes
// with zero cost and the prior itself as the posterior.
func TestEngineCertainPriorCostsNothing(t *testing.T) {
	j, err := dist.New(4, []dist.World{0b1010}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	crowdCalls := &countingProvider{}
	eng := Engine{Prior: j, Selector: NewGreedyPrunePre(), Crowd: crowdCalls, Pc: 0.8, K: 3, Budget: 12}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 || len(res.Rounds) != 0 {
		t.Fatalf("certain prior spent %d tasks over %d rounds", res.Cost, len(res.Rounds))
	}
	if crowdCalls.calls != 0 {
		t.Fatalf("crowd consulted %d times for a certain prior", crowdCalls.calls)
	}
	if res.Final.Entropy() != 0 {
		t.Fatalf("posterior entropy %v, want 0", res.Final.Entropy())
	}
}

// TestEngineKBeyondFactCount: K larger than the fact count is clamped to n
// before reaching the selector.
func TestEngineKBeyondFactCount(t *testing.T) {
	j, err := dist.Uniform(3)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := crowd.NewSimulator(dist.World(0b101), 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingSelector{inner: NewGreedy()}
	eng := Engine{Prior: j, Selector: rec, Crowd: sim, Pc: 0.9, K: 10, Budget: 6}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range rec.ks {
		if k > 3 {
			t.Fatalf("round %d: selector asked for k=%d with only 3 facts", i+1, k)
		}
	}
	if res.Cost > 6 {
		t.Fatalf("cost %d exceeded budget", res.Cost)
	}
}

// allFactsSelector ignores k and returns every fact.
type allFactsSelector struct{}

func (allFactsSelector) Name() string { return "AllFacts" }

func (allFactsSelector) Select(j *dist.Joint, k int, pc float64) ([]int, error) {
	tasks := make([]int, j.N())
	for i := range tasks {
		tasks[i] = i
	}
	return tasks, nil
}

// TestEngineRefusesOverBudgetBatch: a selector that ignores k cannot spend
// past the budget; the engine refuses its batch with ErrBudgetExhausted
// instead of charging it.
func TestEngineRefusesOverBudgetBatch(t *testing.T) {
	j, err := dist.Uniform(6)
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Prior: j, Selector: allFactsSelector{}, Crowd: &countingProvider{}, Pc: 0.8, K: 2, Budget: 3}
	res, err := eng.Run()
	if !errors.Is(err, ErrBudgetExhausted) {
		cost := -1
		if res != nil {
			cost = res.Cost
		}
		t.Fatalf("6-task batch on a budget of 3: err %v, cost %d; want ErrBudgetExhausted", err, cost)
	}
}
