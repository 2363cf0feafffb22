package core

import (
	"errors"
	"fmt"

	"crowdfusion/internal/dist"
)

// ErrBudgetExhausted refuses a judgment set that would spend more tasks
// than a run's budget has left.
var ErrBudgetExhausted = errors.New("core: budget exhausted")

// Run is the state of one select–ask–merge loop (Figure 1): the committed
// posterior and what it cost. The engine, the offline harness and the
// service's sessions all step their loops through it, so every loop clamps,
// selects, conditions and charges alike. It holds no lock and does no I/O.
// Its fields change only through Commit, except Done, which a caller
// latches when a selection comes back empty.
type Run struct {
	Posterior *dist.Joint // the committed posterior
	Pc        float64     // crowd accuracy assumed by selection and scalar conditioning
	Budget    int         // tasks the run may spend
	Spent     int         // tasks committed so far
	Version   int         // merges committed
	Done      bool        // a selection found nothing uncertain; a commit clears it
}

// K clamps a requested round size to the remaining budget and the fact
// count. It is 0 once the run is done or spent.
func (r *Run) K(k int) int {
	if r.Done {
		return 0
	}
	return max(0, min(k, r.Budget-r.Spent, r.Posterior.N()))
}

// Select asks sel for up to k tasks against the committed posterior.
func (r *Run) Select(sel Selector, k int) ([]int, error) {
	return sel.Select(r.Posterior, k, r.Pc)
}

// Update returns the committed posterior conditioned on a judgment set
// (Equation 3), committing nothing. When sens is nil every judgment goes
// through the crowd channel of accuracy Pc; otherwise judgment i has its
// own, sens[i] = P(answer true | fact true) and spec[i] = P(answer false |
// fact false), each a probability but not bounded below by 0.5 (an
// adversarial worker's estimate may be). Uniform channels sens[i] ==
// spec[i] == Pc give the scalar result bit for bit. A set larger than the
// remaining budget is refused with ErrBudgetExhausted.
func (r *Run) Update(tasks []int, answers []bool, sens, spec []float64) (*dist.Joint, error) {
	if r.Spent+len(tasks) > r.Budget {
		return nil, fmt.Errorf("%w: %d spent of %d, %d more requested", ErrBudgetExhausted, r.Spent, r.Budget, len(tasks))
	}
	if sens == nil {
		return MergeAnswers(r.Posterior, tasks, answers, r.Pc)
	}
	if err := checkTasks(r.Posterior, tasks, 1); err != nil { // a neutral pc: dist checks the channels
		return nil, err
	}
	return r.Posterior.ConditionWeighted(tasks, answers, sens, spec)
}

// Commit makes post, an Update over cost tasks, the committed posterior:
// the version advances, the tasks are charged, and Done clears, since the
// new posterior may be uncertain again.
func (r *Run) Commit(post *dist.Joint, cost int) {
	r.Posterior, r.Version, r.Spent, r.Done = post, r.Version+1, r.Spent+cost, false
}
