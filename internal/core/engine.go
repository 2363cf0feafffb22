package core

import (
	"errors"
	"fmt"

	"crowdfusion/internal/dist"
	"crowdfusion/internal/quality"
)

// AnswerProvider supplies crowd answers for a batch of tasks. Each element
// of the returned slice is the crowd's true/false judgment of the fact at
// the same position in tasks. crowd.Simulator and platform.Platform satisfy
// this interface.
type AnswerProvider interface {
	Answers(tasks []int) []bool
}

// RoundStats records one selection-collection-update cycle of the engine.
type RoundStats struct {
	Round    int     // 1-based round number
	Tasks    []int   // fact indices asked this round
	Answers  []bool  // crowd judgments received
	CumCost  int     // cumulative number of tasks asked so far
	Entropy  float64 // H(F) after merging this round's answers
	Utility  float64 // Q(F) = -H(F) after merging
	TaskH    float64 // H(T) of the selected set, the selection objective
	Selected string  // selector name, for mixed-strategy traces
}

// Result is the outcome of an engine run.
type Result struct {
	Final  *dist.Joint  // posterior output distribution
	Rounds []RoundStats // per-round trace
	Cost   int          // total tasks asked
}

// Judgments returns the refined true/false decision for every fact: true
// when the posterior marginal correctness probability is at least 0.5.
func (r *Result) Judgments() []bool {
	return quality.Labels(r.Final.Marginals())
}

// Engine runs the CrowdFusion improvement loop of Figure 1: while budget
// remains, select a task set, post it to the crowd, and merge the answers
// into the output distribution with Bayes' rule (Equation 3).
type Engine struct {
	// Prior is the initial output distribution — the result of a
	// machine-only fusion method, or uniform.
	Prior *dist.Joint
	// Selector chooses each round's task set.
	Selector Selector
	// Crowd answers the selected tasks.
	Crowd AnswerProvider
	// Pc is the crowd accuracy assumed by both selection and merging.
	Pc float64
	// K is the number of tasks posted per round.
	K int
	// Budget is the total number of tasks the run may post. The paper's
	// experiments use B = 60 per book, giving ceil(B/K) rounds.
	Budget int
}

// Validate checks the engine configuration.
func (e *Engine) Validate() error {
	if e.Prior == nil {
		return errors.New("core: engine needs a prior distribution")
	}
	if e.Selector == nil {
		return errors.New("core: engine needs a selector")
	}
	if e.Crowd == nil {
		return errors.New("core: engine needs an answer provider")
	}
	if e.Pc < 0.5 || e.Pc > 1 {
		return ErrBadAccuracy
	}
	if e.K <= 0 {
		return ErrNoTasks
	}
	if e.Budget <= 0 {
		return errors.New("core: engine needs a positive budget")
	}
	return nil
}

// Run executes rounds of K tasks until the budget is exhausted, the
// selector returns no tasks (all facts certain), or merging fails.
func (e *Engine) Run() (*Result, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e.run(FixedK(e.K))
}

// run is the round loop of Run and RunWithPolicy on a validated engine:
// policy sizes each round, clamped to [1, remaining budget] and the fact
// count.
func (e *Engine) run(policy KPolicy) (*Result, error) {
	current := e.Prior.Clone()
	initialH := current.Entropy()
	res := &Result{}
	for round := 1; res.Cost < e.Budget; round++ {
		k := policy.NextK(PolicyStats{
			Round:           round,
			Entropy:         current.Entropy(),
			InitialEntropy:  initialH,
			RemainingBudget: e.Budget - res.Cost,
		})
		if k < 1 {
			k = 1
		}
		if remaining := e.Budget - res.Cost; k > remaining {
			k = remaining
		}
		if n := current.N(); k > n {
			k = n
		}
		tasks, err := e.Selector.Select(current, k, e.Pc)
		if err != nil {
			return nil, fmt.Errorf("core: round %d selection: %w", round, err)
		}
		if len(tasks) == 0 {
			break // nothing uncertain remains to ask
		}
		answers := e.Crowd.Answers(tasks)
		if len(answers) != len(tasks) {
			return nil, fmt.Errorf("core: round %d: %d tasks but %d answers",
				round, len(tasks), len(answers))
		}
		taskH, err := TaskEntropy(current, tasks, e.Pc)
		if err != nil {
			return nil, err
		}
		updated, err := current.Condition(tasks, answers, e.Pc)
		if err != nil {
			return nil, fmt.Errorf("core: round %d merge: %w", round, err)
		}
		current = updated
		res.Cost += len(tasks)
		res.Rounds = append(res.Rounds, RoundStats{
			Round:    round,
			Tasks:    append([]int(nil), tasks...),
			Answers:  append([]bool(nil), answers...),
			CumCost:  res.Cost,
			Entropy:  current.Entropy(),
			Utility:  -current.Entropy(),
			TaskH:    taskH,
			Selected: e.Selector.Name(),
		})
	}
	res.Final = current
	return res, nil
}

// MergeAnswers exposes one Bayesian update step (Equation 3) as a free
// function: the posterior output distribution after the crowd answers the
// given tasks.
func MergeAnswers(j *dist.Joint, tasks []int, answers []bool, pc float64) (*dist.Joint, error) {
	if err := checkTasks(j, tasks, pc); err != nil {
		return nil, err
	}
	return j.Condition(tasks, answers, pc)
}

// MergeAnswersWeighted is the per-judgment form of MergeAnswers: each
// answer carries its own channel parameters — sens[i] = P(answer true |
// fact true), spec[i] = P(answer false | fact false) — typically a
// worker's current accuracy estimate (symmetric EM) or confusion row
// (Dawid–Skene). Uniform weights sens[i] == spec[i] == pc reproduce
// MergeAnswers(…, pc) bit-for-bit (Joint.ConditionWeighted delegates to
// the scalar path in that case).
//
// The task-set validation reuses checkTasks with a neutral pc = 1: the
// per-judgment accuracies are validated by dist (each a probability, not
// bounded below by 0.5 — an adversarial worker's estimate may be).
func MergeAnswersWeighted(j *dist.Joint, tasks []int, answers []bool, sens, spec []float64) (*dist.Joint, error) {
	if err := checkTasks(j, tasks, 1); err != nil {
		return nil, err
	}
	return j.ConditionWeighted(tasks, answers, sens, spec)
}
