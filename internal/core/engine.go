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
// selector returns no tasks (all facts certain), or a round fails; a batch
// larger than the remaining budget fails it with ErrBudgetExhausted.
func (e *Engine) Run() (*Result, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	run := Run{Posterior: e.Prior.Clone(), Pc: e.Pc, Budget: e.Budget}
	res := &Result{}
	for round := 1; run.K(e.K) > 0; round++ {
		tasks, err := run.Select(e.Selector, run.K(e.K))
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
		taskH, err := TaskEntropy(run.Posterior, tasks, e.Pc)
		if err != nil {
			return nil, err
		}
		post, err := run.Update(tasks, answers, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("core: round %d merge: %w", round, err)
		}
		run.Commit(post, len(tasks))
		res.Rounds = append(res.Rounds, RoundStats{
			Round:    round,
			Tasks:    append([]int(nil), tasks...),
			Answers:  append([]bool(nil), answers...),
			CumCost:  run.Spent,
			Entropy:  post.Entropy(),
			Utility:  -post.Entropy(),
			TaskH:    taskH,
			Selected: e.Selector.Name(),
		})
	}
	res.Final, res.Cost = run.Posterior, run.Spent
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
