package core

import "math"

// Round-size policies. The paper's Section V-C2 concludes that k trades
// latency against quality: each round is one platform round-trip, so large
// k finishes sooner, while small k re-targets after every answer and
// spends the budget better. A KPolicy lets the engine move along that
// trade-off during a run instead of fixing k up front — its natural
// instantiation starts with large rounds while beliefs are vague and
// shrinks them as the posterior sharpens.

// PolicyStats is the information a policy may base its decision on.
type PolicyStats struct {
	// Round is the 1-based upcoming round number.
	Round int
	// Entropy is the current output-distribution entropy H(F).
	Entropy float64
	// InitialEntropy is H(F) of the engine's prior.
	InitialEntropy float64
	// RemainingBudget is the number of tasks still available.
	RemainingBudget int
}

// KPolicy decides how many tasks to post in the upcoming round. Returned
// values are clamped by the engine to [1, remaining budget] and the fact
// count.
type KPolicy interface {
	NextK(stats PolicyStats) int
}

// FixedK posts the same number of tasks every round — the paper's
// protocol.
type FixedK int

// NextK implements KPolicy.
func (k FixedK) NextK(PolicyStats) int { return int(k) }

// EntropyAdaptiveK interpolates between MaxK and MinK by the fraction of
// the prior's entropy still unresolved: vague beliefs get big, fast
// rounds; sharp beliefs get small, targeted ones.
type EntropyAdaptiveK struct {
	MinK int
	MaxK int
}

// NextK implements KPolicy.
func (p EntropyAdaptiveK) NextK(s PolicyStats) int {
	lo, hi := p.MinK, p.MaxK
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	if s.InitialEntropy <= 0 {
		return lo
	}
	frac := s.Entropy / s.InitialEntropy
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return lo + int(math.Round(frac*float64(hi-lo)))
}

// HalvingK halves the round size every FullRounds rounds, never dropping
// below 1 — a schedule for deployments that must bound total rounds.
type HalvingK struct {
	InitialK   int
	FullRounds int
}

// NextK implements KPolicy.
func (p HalvingK) NextK(s PolicyStats) int {
	k := p.InitialK
	if k < 1 {
		k = 1
	}
	period := p.FullRounds
	if period < 1 {
		period = 1
	}
	for r := s.Round - 1; r >= period && k > 1; r -= period {
		k /= 2
	}
	if k < 1 {
		k = 1
	}
	return k
}

// RunWithPolicy executes the engine loop with a round-size policy instead
// of the fixed K. All other behaviour matches Engine.Run.
func (e *Engine) RunWithPolicy(policy KPolicy) (*Result, error) {
	if policy == nil {
		return e.Run()
	}
	// Validate with a nominal K; the policy supplies the real one.
	probe := *e
	if probe.K <= 0 {
		probe.K = 1
	}
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	return e.run(policy)
}
