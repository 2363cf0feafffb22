package core

import (
	"fmt"
	"math/bits"
	"sort"

	"crowdfusion/internal/dist"
	"crowdfusion/internal/info"
)

// Query-based CrowdFusion (Section IV of the paper): when only a subset of
// facts — the facts of interest (FOI) — matter to the user, the utility
// becomes Q(I|T) = H(T) - H(I, T), and tasks outside the FOI remain worth
// asking when they are correlated with it (the paper's continent/population
// example). Q(I|T) equals -H(I | Ans_T): maximizing it minimizes the
// posterior uncertainty about the facts of interest.

// JointFactAnswerEntropy returns H(I, T): the joint entropy of the true
// judgments of the facts of interest and the crowd answers to the selected
// tasks. foi and tasks may overlap — a fact can be both of interest and
// asked.
func JointFactAnswerEntropy(j *dist.Joint, foi, tasks []int, pc float64) (float64, error) {
	if err := checkTasks(j, tasks, pc); err != nil {
		return 0, err
	}
	if err := checkFOI(j, foi); err != nil {
		return 0, err
	}
	if len(foi) > MaxTasksPerRound {
		return 0, fmt.Errorf("core: facts-of-interest set too large (%d, limit %d)",
			len(foi), MaxTasksPerRound)
	}
	k := len(tasks)
	// Group worlds by the pair (FOI pattern, task pattern).
	type key struct{ q, t uint64 }
	acc := make(map[key]float64, j.SupportSize())
	worlds := j.Worlds()
	probs := j.Probs()
	for i, w := range worlds {
		acc[key{w.Pattern(foi), w.Pattern(tasks)}] += probs[i]
	}
	if k == 0 {
		masses := make([]float64, 0, len(acc))
		for _, m := range acc {
			masses = append(masses, m)
		}
		return info.Entropy(masses), nil
	}
	weights := dist.FillChannelWeights(make([]float64, k+1), pc)
	// P(q, a) = sum_t m[q,t] * w[d(a, t)] — accumulate per (q, a) cell.
	cells := make(map[uint64][]float64, len(acc))
	size := 1 << uint(k)
	for kt, m := range acc {
		row, ok := cells[kt.q]
		if !ok {
			row = make([]float64, size)
			cells[kt.q] = row
		}
		for a := uint64(0); a < uint64(size); a++ {
			d := bits.OnesCount64(a ^ kt.t)
			row[a] += m * weights[d]
		}
	}
	var h float64
	for _, row := range cells {
		for _, p := range row {
			h -= info.PLogP(p)
		}
	}
	if h < 0 {
		h = 0
	}
	return h, nil
}

// QueryUtility returns Q(I|T) = H(T) - H(I, T), the query-based utility of
// Section IV. It equals -H(I | Ans_T) and is therefore always <= 0,
// increasing toward 0 as the answers pin down the facts of interest.
func QueryUtility(j *dist.Joint, foi, tasks []int, pc float64) (float64, error) {
	ht, err := TaskEntropy(j, tasks, pc)
	if err != nil {
		return 0, err
	}
	hit, err := JointFactAnswerEntropy(j, foi, tasks, pc)
	if err != nil {
		return 0, err
	}
	return ht - hit, nil
}

// QueryGreedySelector implements the Section IV adaptation of Algorithm 1:
// greedily add the task maximizing the query-based utility improvement
// ρ_j = Q(I|T ∪ {j}) - Q(I|T). The gain equals the conditional mutual
// information I(Ans_j ; I | Ans_T) ≥ 0, and Q(I|·) is monotone submodular,
// so the same (1 - 1/e) guarantee applies.
type QueryGreedySelector struct {
	// FOI is the set of fact indices the user cares about.
	FOI []int
	// MinGain stops selection when the best remaining gain drops to or
	// below it; zero reproduces the paper's "stop when no benefit" rule.
	MinGain float64
}

// Name implements Selector.
func (q *QueryGreedySelector) Name() string { return "QueryApprox" }

// Select implements Selector.
func (q *QueryGreedySelector) Select(j *dist.Joint, k int, pc float64) ([]int, error) {
	if k <= 0 {
		return nil, ErrNoTasks
	}
	if err := checkFOI(j, q.FOI); err != nil {
		return nil, err
	}
	n := j.N()
	if k > n {
		k = n
	}
	if k > MaxTasksPerRound {
		return nil, ErrTooManyTasks
	}
	if err := checkTasks(j, nil, pc); err != nil {
		return nil, err
	}
	selected := make([]int, 0, k)
	inSet := make([]bool, n)
	currentQ, err := QueryUtility(j, q.FOI, nil, pc)
	if err != nil {
		return nil, err
	}
	for len(selected) < k {
		bestFact := -1
		bestQ := currentQ
		for f := 0; f < n; f++ {
			if inSet[f] {
				continue
			}
			qv, err := QueryUtility(j, q.FOI, append(selected, f), pc)
			if err != nil {
				return nil, err
			}
			if qv > bestQ+gainTolerance {
				bestQ = qv
				bestFact = f
			}
		}
		if bestFact < 0 || bestQ-currentQ <= q.MinGain+gainTolerance {
			break
		}
		selected = append(selected, bestFact)
		inSet[bestFact] = true
		currentQ = bestQ
	}
	sort.Ints(selected)
	return selected, nil
}

func checkFOI(j *dist.Joint, foi []int) error {
	if len(foi) == 0 {
		return fmt.Errorf("core: query-based selection needs a non-empty facts-of-interest set")
	}
	seen := make(map[int]bool, len(foi))
	for _, f := range foi {
		if f < 0 || f >= j.N() {
			return fmt.Errorf("core: fact of interest %d out of range [0, %d)", f, j.N())
		}
		if seen[f] {
			return fmt.Errorf("core: duplicate fact of interest %d", f)
		}
		seen[f] = true
	}
	return nil
}
