package dist

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
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

// FillChannelWeights fills w[d] = pc^(k-d) * (1-pc)^d for d = 0..k,
// where k = len(w)-1, and returns w: the probability that a crowd with
// accuracy pc answers k tasks at Hamming distance d from their true
// judgments (Equation 2's Pc^#Same (1-Pc)^#Diff). Conditioning here and
// task selection in core both weigh answers with it.
func FillChannelWeights(w []float64, pc float64) []float64 {
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

// judgment is one answer of a weighted evidence set, precomputed for the
// per-world loop: the fact's bit position and the answer's likelihood
// given the fact false (f[0]) and true (f[1]).
type judgment struct {
	shift uint
	f     [2]float64
}

// fillJudgments fills js with the likelihood pairs of the evidence. An
// answer "true" is likely sens given the fact true and 1-spec given it
// false; an answer "false", 1-sens and spec.
func fillJudgments(js []judgment, tasks []int, answers []bool, sens, spec []float64) []judgment {
	for b, f := range tasks {
		js[b].shift = uint(f)
		if answers[b] {
			js[b].f = [2]float64{1 - spec[b], sens[b]}
		} else {
			js[b].f = [2]float64{spec[b], 1 - sens[b]}
		}
	}
	return js
}

// kahan adds x to the compensated sum (sum, comp): one step of the Kahan
// summation of info.Sum and info.Entropy, so a sum fused into another
// loop keeps their bits.
func kahan(sum, comp, x float64) (float64, float64) {
	y := x - comp
	t := sum + y
	return t, (t - sum) - y
}

// posterior finishes a conditioning: ps, the one allocation a conditioning
// makes besides the Joint header, holds the likelihood-weighted masses
// parallel to the receiver's support, with their Kahan total and
// whether any of them is zero. In the common case none is (impossible
// for accuracies strictly inside (0, 1)) and the posterior shares the
// receiver's worlds slice (both are immutable; a full support is the
// shared cube of fullCube). When the evidence rules worlds out, the kept
// worlds are compacted into a slice of the posterior's own. Either way no
// allocation is shared with another posterior, so a dropped posterior is
// garbage at once.
func (j *Joint) posterior(ps []float64, total float64, zero bool) (*Joint, error) {
	var kept []World
	if zero {
		kept = make([]World, len(ps))
	}
	post, err := finish(j.n, j.worlds, kept, ps, total)
	if err != nil {
		return nil, ErrImpossibleAnswers
	}
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

// taskBits scatters an evidence set onto the world bits: mask has the bit
// of every asked fact, ans the bit of every fact answered true. A world w
// then disagrees with popcount((w ^ ans) & mask) of the answers.
func taskBits(tasks []int, answers []bool) (mask, ans uint64) {
	for i, f := range tasks {
		bit := uint64(1) << uint(f)
		mask |= bit
		if answers[i] {
			ans |= bit
		}
	}
	return mask, ans
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
	var wbuf [MaxFacts + 1]float64
	weights := FillChannelWeights(wbuf[:k+1], pc)
	mask, ans := taskBits(tasks, answers)
	var sum, comp float64
	for i, w := range j.worlds {
		sum, comp = kahan(sum, comp, j.probs[i]*weights[bits.OnesCount64((uint64(w)^ans)&mask)])
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
	var wbuf [MaxFacts + 1]float64
	weights := FillChannelWeights(wbuf[:k+1], pc)
	mask, ans := taskBits(tasks, answers)
	ps := make([]float64, len(j.worlds)) // the posterior's probabilities, in place
	worlds, probs := j.worlds, j.probs[:len(j.worlds)]
	var total, comp float64
	zero := false
	for i, w := range worlds {
		p := probs[i] * weights[bits.OnesCount64((uint64(w)^ans)&mask)]
		ps[i] = p
		if p == 0 {
			zero = true
		}
		total, comp = kahan(total, comp, p)
	}
	return j.posterior(ps, total, zero)
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
	var jbuf [MaxFacts]judgment
	js := fillJudgments(jbuf[:k], tasks, answers, sens, spec)
	ps := make([]float64, len(j.worlds)) // the posterior's probabilities, in place
	worlds, probs := j.worlds, j.probs[:len(j.worlds)]
	var total, comp float64
	zero := false
	for i, w := range worlds {
		like := 1.0
		for b := range js {
			// shift < 64 always; the mask lets the compiler drop its
			// over-wide shift handling.
			like *= js[b].f[uint64(w)>>(js[b].shift&63)&1]
		}
		p := probs[i] * like
		ps[i] = p
		if p == 0 {
			zero = true
		}
		total, comp = kahan(total, comp, p)
	}
	return j.posterior(ps, total, zero)
}
