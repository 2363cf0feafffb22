package dist

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"crowdfusion/internal/info"
)

// The crowd model of Definition 2: every answer is independently correct
// with probability pc, so the probability that the crowd's answers to k
// tasks sit at Hamming distance d from a world's true judgments is
// pc^(k-d) * (1-pc)^d (Equation 2). This file implements the two sides of
// that channel: the evidence probability P(e) of an answer set
// (AnswerSetProb) and the Bayesian update of the output distribution
// given the answers (Condition, the paper's Equation 3).

// ErrImpossibleAnswers is returned by Condition when the answer set has
// zero probability under the distribution (only possible at pc = 0 or 1),
// leaving no posterior to normalize.
var ErrImpossibleAnswers = errors.New("dist: answer set has probability zero")

// channelWeights returns w[d] = pc^(k-d) * (1-pc)^d for d = 0..k, the
// per-Hamming-distance likelihoods of Equation 2.
func channelWeights(k int, pc float64) []float64 {
	return fillChannelWeights(make([]float64, k+1), pc)
}

// fillChannelWeights is channelWeights into a caller-provided slice of
// length k+1, so hot paths can reuse pooled scratch.
func fillChannelWeights(w []float64, pc float64) []float64 {
	k := len(w) - 1
	w[0] = 1
	for i := 0; i < k; i++ {
		w[0] *= pc
	}
	if pc == 0 {
		// Degenerate: only the all-wrong answer vector is possible.
		for d := 1; d <= k; d++ {
			w[d] = 0
		}
		if k > 0 {
			w[k] = 1
		}
		return w
	}
	ratio := (1 - pc) / pc
	for d := 1; d <= k; d++ {
		w[d] = w[d-1] * ratio
	}
	return w
}

// condScratch holds the transient buffers of one conditioning call: the
// unnormalized posterior masses and the Hamming-distance weight table.
// Both are consumed before the posterior is returned, so they recycle
// through a pool and the steady-state Bayesian update allocates only the
// posterior's own storage.
type condScratch struct {
	ps []float64
	w  []float64
}

var condPool = sync.Pool{New: func() any { return new(condScratch) }}

// masses returns a zero-length-irrelevant slice of n uninitialized
// floats backed by the scratch.
func (s *condScratch) masses(n int) []float64 {
	if cap(s.ps) < n {
		s.ps = make([]float64, n)
	}
	return s.ps[:n]
}

// weights returns the Equation 2 weight table for (k, pc) backed by the
// scratch.
func (s *condScratch) weights(k int, pc float64) []float64 {
	if cap(s.w) < k+1 {
		s.w = make([]float64, k+1)
	}
	return fillChannelWeights(s.w[:k+1], pc)
}

// finishConditioned builds the posterior for likelihood-weighted masses
// ps parallel to the receiver's support. It replicates finish's exact
// arithmetic — normalize each mass by the total in ascending support
// order, accumulate marginals by bit-scan, entropy over the normalized
// probabilities — so posteriors are bit-identical to the allocating path.
//
// In the common case no mass is exactly zero (impossible for accuracies
// strictly inside (0, 1)). The posterior then shares the receiver's
// worlds slice (both are immutable; a full support is the shared cube of
// fullCube) and packs its probabilities and marginals into one buffer, so
// a conditioning allocates twice: that buffer and the Joint header.
// Neither is shared with another posterior, so a dropped posterior is
// garbage at once. When the evidence zeroes out part of the support, it
// falls back to the compacting finish on fresh copies. ps is scratch:
// consumed either way.
func (j *Joint) finishConditioned(ps []float64) (*Joint, error) {
	zero := false
	for _, p := range ps {
		if p == 0 {
			zero = true
			break
		}
	}
	if zero {
		ws := make([]World, len(j.worlds))
		copy(ws, j.worlds)
		return finish(j.n, ws, append([]float64(nil), ps...))
	}
	total := info.Sum(ps)
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return nil, ErrZeroMass
	}
	m := len(ps)
	buf := make([]float64, m+j.n)
	probs := buf[:m:m]
	marginals := buf[m:]
	post := &Joint{n: j.n, worlds: j.worlds, probs: probs, marginals: marginals}
	for i, p := range ps {
		p /= total
		probs[i] = p
		for mm := uint64(j.worlds[i]); mm != 0; mm &= mm - 1 {
			marginals[bits.TrailingZeros64(mm)] += p
		}
	}
	post.entropy = info.Entropy(probs)
	return post, nil
}

// checkEvidence validates a (tasks, answers, pc) evidence triple against
// the distribution.
func (j *Joint) checkEvidence(tasks []int, answers []bool, pc float64) error {
	if err := j.checkFacts(tasks); err != nil {
		return err
	}
	if len(answers) != len(tasks) {
		return fmt.Errorf("dist: %d tasks but %d answers", len(tasks), len(answers))
	}
	if math.IsNaN(pc) || pc < 0 || pc > 1 {
		return fmt.Errorf("dist: crowd accuracy %v outside [0, 1]", pc)
	}
	return nil
}

// answerPattern packs an answer vector into the bitmask convention of
// World.Pattern: bit i set exactly when answers[i] is true.
func answerPattern(answers []bool) uint64 {
	var p uint64
	for i, a := range answers {
		if a {
			p |= 1 << uint(i)
		}
	}
	return p
}

// AnswerSetProb returns P(e): the probability that a crowd with accuracy
// pc, asked the given tasks, returns exactly the given answers — the
// evidence term of Equation 3, summing Equation 2 over the support.
func (j *Joint) AnswerSetProb(tasks []int, answers []bool, pc float64) (float64, error) {
	if err := j.checkEvidence(tasks, answers, pc); err != nil {
		return 0, err
	}
	k := len(tasks)
	if k == 0 {
		return 1, nil
	}
	weights := channelWeights(k, pc)
	ans := answerPattern(answers)
	var sum, comp float64
	for i, w := range j.worlds {
		d := bits.OnesCount64(w.Pattern(tasks) ^ ans)
		term := j.probs[i] * weights[d]
		y := term - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum, nil
}

// Condition returns the posterior distribution after the crowd answers
// the given tasks — the Bayesian update of Equation 3:
//
//	P(o | e) = P(e | o) * P(o) / P(e).
//
// The support is unchanged except for worlds the evidence rules out
// entirely (possible only at pc = 0 or 1), which are dropped; when none
// are dropped the posterior shares the receiver's worlds slice (Joints
// are immutable, so sharing is safe). The receiver is not modified.
// Conditioning on no tasks returns a copy of the receiver.
// ErrImpossibleAnswers is returned when P(e) = 0.
func (j *Joint) Condition(tasks []int, answers []bool, pc float64) (*Joint, error) {
	if err := j.checkEvidence(tasks, answers, pc); err != nil {
		return nil, err
	}
	k := len(tasks)
	if k == 0 {
		return j.Clone(), nil
	}
	s := condPool.Get().(*condScratch)
	weights := s.weights(k, pc)
	ans := answerPattern(answers)
	ps := s.masses(len(j.worlds))
	for i, w := range j.worlds {
		d := bits.OnesCount64(w.Pattern(tasks) ^ ans)
		ps[i] = j.probs[i] * weights[d]
	}
	post, err := j.finishConditioned(ps)
	condPool.Put(s)
	if err != nil {
		return nil, ErrImpossibleAnswers
	}
	return post, nil
}

// Condition is the package-level form of Joint.Condition, for callers
// that hold the evidence first.
func Condition(j *Joint, tasks []int, answers []bool, pc float64) (*Joint, error) {
	return j.Condition(tasks, answers, pc)
}

// checkEvidenceWeighted validates a per-judgment evidence set: one
// sensitivity (P(answer true | fact true)) and one specificity
// (P(answer false | fact false)) per judgment, each a probability.
func (j *Joint) checkEvidenceWeighted(tasks []int, answers []bool, sens, spec []float64) error {
	if err := j.checkFacts(tasks); err != nil {
		return err
	}
	if len(answers) != len(tasks) {
		return fmt.Errorf("dist: %d tasks but %d answers", len(tasks), len(answers))
	}
	if len(sens) != len(tasks) || len(spec) != len(tasks) {
		return fmt.Errorf("dist: %d tasks but %d/%d per-judgment accuracies",
			len(tasks), len(sens), len(spec))
	}
	for i := range sens {
		if math.IsNaN(sens[i]) || sens[i] < 0 || sens[i] > 1 {
			return fmt.Errorf("dist: judgment %d sensitivity %v outside [0, 1]", i, sens[i])
		}
		if math.IsNaN(spec[i]) || spec[i] < 0 || spec[i] > 1 {
			return fmt.Errorf("dist: judgment %d specificity %v outside [0, 1]", i, spec[i])
		}
	}
	return nil
}

// uniformAccuracy reports whether every judgment shares one symmetric
// accuracy (sens[i] == spec[i] == c for all i) and returns it.
func uniformAccuracy(sens, spec []float64) (float64, bool) {
	c := sens[0]
	for i := range sens {
		if sens[i] != c || spec[i] != c {
			return 0, false
		}
	}
	return c, true
}

// ConditionWeighted is the per-judgment generalization of Condition: each
// answer i carries its own channel — sens[i] = P(answer true | fact true)
// and spec[i] = P(answer false | fact false) — so judgments from workers
// of different estimated accuracy (or a Dawid–Skene confusion row) weigh
// differently in the same Bayesian update. The world likelihood is the
// product of the per-judgment likelihoods, replacing Equation 2's single
// pc^#Same (1-pc)^#Diff term.
//
// When every judgment shares one symmetric accuracy c (sens[i] == spec[i]
// == c), the update IS Definition 2's channel and the call delegates to
// Condition(tasks, answers, c), making the uniform case bit-identical to
// the fixed-pc path — the differential oracle the weighted merge is
// verified against.
func (j *Joint) ConditionWeighted(tasks []int, answers []bool, sens, spec []float64) (*Joint, error) {
	if err := j.checkEvidenceWeighted(tasks, answers, sens, spec); err != nil {
		return nil, err
	}
	k := len(tasks)
	if k == 0 {
		return j.Clone(), nil
	}
	if c, uniform := uniformAccuracy(sens, spec); uniform {
		return j.Condition(tasks, answers, c)
	}
	ans := answerPattern(answers)
	s := condPool.Get().(*condScratch)
	ps := s.masses(len(j.worlds))
	for i, w := range j.worlds {
		pat := w.Pattern(tasks)
		like := 1.0
		for b := 0; b < k; b++ {
			bit := uint64(1) << uint(b)
			truth := pat&bit != 0
			agree := (ans&bit != 0) == truth
			switch {
			case truth && agree:
				like *= sens[b]
			case truth:
				like *= 1 - sens[b]
			case agree:
				like *= spec[b]
			default:
				like *= 1 - spec[b]
			}
		}
		ps[i] = j.probs[i] * like
	}
	post, err := j.finishConditioned(ps)
	condPool.Put(s)
	if err != nil {
		return nil, ErrImpossibleAnswers
	}
	return post, nil
}

// ConditionWeighted is the package-level form of Joint.ConditionWeighted.
func ConditionWeighted(j *Joint, tasks []int, answers []bool, sens, spec []float64) (*Joint, error) {
	return j.ConditionWeighted(tasks, answers, sens, spec)
}

// AnswerSetProb is the package-level form of Joint.AnswerSetProb.
func AnswerSetProb(j *Joint, tasks []int, answers []bool, pc float64) (float64, error) {
	return j.AnswerSetProb(tasks, answers, pc)
}
