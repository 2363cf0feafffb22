package core

import (
	"math/bits"

	"crowdfusion/internal/dist"
	"crowdfusion/internal/info"
)

// Expected-outcome analysis of a candidate task set, before any answers
// arrive. These quantities justify the selection objective: maximizing
// H(T) at fixed k is exactly minimizing the expected posterior entropy,
// because
//
//	E_ans[H(F | Ans_T)] = H(F) - I(F; Ans_T)
//	                    = H(F) - H(T) + |T|·H(Crowd).
//
// ExpectedPosteriorEntropy computes the left side directly by enumerating
// answer sets; the identity is verified by property tests, giving an
// independent check on the whole Equation 2/3 machinery.

// ExpectedPosteriorEntropy returns E over answer sets of H(F | Ans_T): the
// average entropy of the Bayesian-updated distribution, weighted by each
// answer set's probability. Cost O(2^k · |O|).
func ExpectedPosteriorEntropy(j *dist.Joint, tasks []int, pc float64) (float64, error) {
	if err := checkTasks(j, tasks, pc); err != nil {
		return 0, err
	}
	k := len(tasks)
	if k == 0 {
		return j.Entropy(), nil
	}
	worlds := j.Worlds()
	probs := j.Probs()
	weights := dist.FillChannelWeights(make([]float64, k+1), pc)
	patterns := make([]uint64, len(worlds))
	for i, w := range worlds {
		patterns[i] = w.Pattern(tasks)
	}
	var expected float64
	posterior := make([]float64, len(worlds))
	for a := uint64(0); a < uint64(1)<<uint(k); a++ {
		var pAns float64
		for i := range worlds {
			d := bits.OnesCount64(a ^ patterns[i])
			posterior[i] = probs[i] * weights[d]
			pAns += posterior[i]
		}
		if pAns <= 0 {
			continue
		}
		// H of the normalized posterior, computed without dividing
		// through: H(p/Z) = log2 Z - (1/Z) sum p log2 p.
		expected += pAns * info.EntropyNormalized(posterior)
	}
	return expected, nil
}

// InformationGain returns I(F; Ans_T) = H(F) - E[H(F | Ans_T)]: the
// expected utility improvement of asking the task set. It is always
// non-negative and zero exactly when every asked fact is already certain.
func InformationGain(j *dist.Joint, tasks []int, pc float64) (float64, error) {
	eh, err := ExpectedPosteriorEntropy(j, tasks, pc)
	if err != nil {
		return 0, err
	}
	g := j.Entropy() - eh
	if g < 0 && g > -1e-9 {
		g = 0
	}
	return g, nil
}
