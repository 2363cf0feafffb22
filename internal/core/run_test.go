package core

import (
	"errors"
	"math"
	"slices"
	"testing"

	"crowdfusion/internal/dist"
)

// TestRunK: a requested round size is clamped to the remaining budget and
// the fact count, and is 0 once the run is spent or done.
func TestRunK(t *testing.T) {
	j, err := dist.Uniform(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		budget, spent int
		done          bool
		k, want       int
	}{
		{"fits", 10, 0, false, 3, 3},
		{"budget", 10, 8, false, 3, 2},
		{"facts", 10, 0, false, 6, 4},
		{"spent", 10, 10, false, 3, 0},
		{"done", 10, 0, true, 3, 0},
		{"zero", 10, 0, false, 0, 0},
	} {
		r := Run{Posterior: j, Pc: 0.8, Budget: c.budget, Spent: c.spent, Done: c.done}
		if got := r.K(c.k); got != c.want {
			t.Errorf("%s: K(%d) = %d, want %d", c.name, c.k, got, c.want)
		}
	}
}

// TestRunUniformChannelsMatchScalar: channels sens == spec == pc condition
// bit for bit as the scalar pc does.
func TestRunUniformChannelsMatchScalar(t *testing.T) {
	r := Run{Posterior: paperJoint(t), Pc: 0.8, Budget: 10}
	tasks, answers := []int{0, 2, 3}, []bool{true, false, true}
	scalar, err := r.Update(tasks, answers, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	uniform := []float64{0.8, 0.8, 0.8}
	weighted, err := r.Update(tasks, answers, uniform, uniform)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(scalar.Worlds(), weighted.Worlds()) ||
		!slices.EqualFunc(scalar.Probs(), weighted.Probs(), func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
		t.Fatal("uniform channels condition differently from the scalar pc")
	}
}

// TestRunUpdateChargesNothing: an update leaves the run as it was;
// only Commit advances the version, charges the tasks and clears Done.
func TestRunUpdateChargesNothing(t *testing.T) {
	prior := paperJoint(t)
	r := Run{Posterior: prior, Pc: 0.8, Budget: 5, Spent: 1, Version: 1, Done: true}
	before := r
	post, err := r.Update([]int{0, 1}, []bool{true, true}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r != before {
		t.Fatalf("the update changed the run: %+v, was %+v", r, before)
	}
	r.Commit(post, 2)
	if r.Posterior != post || r.Version != 2 || r.Spent != 3 || r.Done {
		t.Fatalf("after commit: %+v, want the posterior at version 2, 3 spent, not done", r)
	}
}

// TestRunRefusesOverBudget: a judgment set larger than the remaining budget
// is refused with ErrBudgetExhausted, and the run is unchanged.
func TestRunRefusesOverBudget(t *testing.T) {
	r := Run{Posterior: paperJoint(t), Pc: 0.8, Budget: 3, Spent: 2, Version: 2}
	before := r
	for _, sens := range [][]float64{nil, {0.9, 0.7}} {
		post, err := r.Update([]int{0, 1}, []bool{true, false}, sens, sens)
		if !errors.Is(err, ErrBudgetExhausted) || post != nil {
			t.Fatalf("2 tasks with 1 left (sens %v): post %v, err %v; want ErrBudgetExhausted", sens, post, err)
		}
	}
	if r != before {
		t.Fatalf("a refused set changed the run: %+v, was %+v", r, before)
	}
	if _, err := r.Update([]int{0}, []bool{true}, nil, nil); err != nil {
		t.Fatalf("1 task with 1 left: %v", err)
	}
}
