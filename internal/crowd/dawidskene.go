package crowd

import (
	"fmt"
	"math"
	"sort"
)

// Full Dawid-Skene estimation with asymmetric worker confusion: each
// worker has a sensitivity (probability of answering "true" on a true
// fact) and a specificity (probability of answering "false" on a false
// fact). The symmetric model of EstimateEM cannot represent workers who
// are biased toward one answer — precisely the behaviour the paper's error
// analysis observed (over 40% of workers judging additional-info
// statements "true" while judging most other statements correctly).

// ConfusionEstimate holds per-worker confusion parameters and per-task
// posteriors.
type ConfusionEstimate struct {
	// Sensitivity maps worker ID to P(answer true | fact true).
	Sensitivity map[string]float64
	// Specificity maps worker ID to P(answer false | fact false).
	Specificity map[string]float64
	// TaskPosterior maps fact index to P(fact true | answers).
	TaskPosterior map[int]float64
	// Prior is the estimated fraction of true facts.
	Prior float64
	// Iterations actually run.
	Iterations int
}

// Accuracy returns a worker's balanced accuracy (mean of sensitivity and
// specificity), the scalar most comparable to the symmetric model's Pc.
func (e *ConfusionEstimate) Accuracy(worker string) float64 {
	return (e.Sensitivity[worker] + e.Specificity[worker]) / 2
}

// Bias returns sensitivity minus specificity: positive for workers biased
// toward answering "true", negative for "false"-biased workers, near zero
// for symmetric ones.
func (e *ConfusionEstimate) Bias(worker string) float64 {
	return e.Sensitivity[worker] - e.Specificity[worker]
}

// Workers returns the estimated worker IDs, sorted.
func (e *ConfusionEstimate) Workers() []string {
	out := make([]string, 0, len(e.Sensitivity))
	for w := range e.Sensitivity {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// EstimateDawidSkene runs EM with per-worker sensitivity/specificity on a
// redundant answer log. Options are shared with the symmetric estimator.
func EstimateDawidSkene(answers []Answer, opts EMOptions) (*ConfusionEstimate, error) {
	if len(answers) == 0 {
		return nil, ErrNoAnswers
	}
	opts = opts.normalized()

	workerIDs := make([]string, 0)
	workerIdx := make(map[string]int)
	taskIDs := make([]int, 0)
	taskIdx := make(map[int]int)
	for _, a := range answers {
		if a.Worker == "" {
			return nil, fmt.Errorf("crowd: answer for fact %d has no worker ID", a.Fact)
		}
		if _, ok := workerIdx[a.Worker]; !ok {
			workerIdx[a.Worker] = -1
			workerIDs = append(workerIDs, a.Worker)
		}
		if _, ok := taskIdx[a.Fact]; !ok {
			taskIdx[a.Fact] = -1
			taskIDs = append(taskIDs, a.Fact)
		}
	}
	sort.Strings(workerIDs)
	for i, w := range workerIDs {
		workerIdx[w] = i
	}
	sort.Ints(taskIDs)
	for i, f := range taskIDs {
		taskIdx[f] = i
	}

	votes := make([][]emVote, len(taskIDs))
	for _, a := range answers {
		fi := taskIdx[a.Fact]
		votes[fi] = append(votes[fi], emVote{w: workerIdx[a.Worker], value: a.Value})
	}

	nW := len(workerIDs)
	sens := make([]float64, nW)
	spec := make([]float64, nW)
	for i := range sens {
		sens[i] = opts.InitAccuracy
		spec[i] = opts.InitAccuracy
	}
	// Majority-vote initialization of the posteriors — the original
	// Dawid & Skene recipe. Starting EM from the raw vote shares instead
	// of flat parameters avoids most of the spurious local optima that
	// plague confusion-matrix estimation with few workers per task.
	q := make([]float64, len(taskIDs))
	for fi, vs := range votes {
		trues := 0
		for _, v := range vs {
			if v.value {
				trues++
			}
		}
		q[fi] = (float64(trues) + 0.5) / (float64(len(vs)) + 1)
	}
	pi := 0.5

	clamp := func(x float64) float64 {
		if x < opts.ClampLo {
			return opts.ClampLo
		}
		if x > opts.ClampHi {
			return opts.ClampHi
		}
		return x
	}

	logs := make([]workerLogs, nW)
	iters := 0
	for iter := 0; iter < opts.MaxIter; iter++ {
		iters = iter + 1
		// M-step from the current posteriors.
		sensNum := make([]float64, nW)
		sensDen := make([]float64, nW)
		specNum := make([]float64, nW)
		specDen := make([]float64, nW)
		for fi, vs := range votes {
			for _, v := range vs {
				sensDen[v.w] += q[fi]
				specDen[v.w] += 1 - q[fi]
				if v.value {
					sensNum[v.w] += q[fi]
				} else {
					specNum[v.w] += 1 - q[fi]
				}
			}
		}
		maxDelta := 0.0
		for wi := 0; wi < nW; wi++ {
			if sensDen[wi] > 0 {
				next := clamp(sensNum[wi] / sensDen[wi])
				if d := math.Abs(next - sens[wi]); d > maxDelta {
					maxDelta = d
				}
				sens[wi] = next
			}
			if specDen[wi] > 0 {
				next := clamp(specNum[wi] / specDen[wi])
				if d := math.Abs(next - spec[wi]); d > maxDelta {
					maxDelta = d
				}
				spec[wi] = next
			}
		}
		var sumQ float64
		for _, qf := range q {
			sumQ += qf
		}
		pi = sumQ / float64(len(q))
		if pi < 0.01 {
			pi = 0.01
		}
		if pi > 0.99 {
			pi = 0.99
		}
		// E-step with the updated parameters.
		eStep(votes, voteLogs(logs, sens, spec), pi, q)
		if maxDelta < opts.Tol {
			break
		}
	}

	// Canonicalize the label-flip symmetry (sens -> 1-sens,
	// spec -> 1-spec, q -> 1-q): report the branch with mean balanced
	// accuracy above chance.
	var mean float64
	for i := range sens {
		mean += (sens[i] + spec[i]) / 2
	}
	if mean/float64(nW) < 0.5 {
		for i := range sens {
			sens[i] = 1 - sens[i]
			spec[i] = 1 - spec[i]
		}
		for i := range q {
			q[i] = 1 - q[i]
		}
		pi = 1 - pi
	}

	est := &ConfusionEstimate{
		Sensitivity:   make(map[string]float64, nW),
		Specificity:   make(map[string]float64, nW),
		TaskPosterior: make(map[int]float64, len(taskIDs)),
		Prior:         pi,
		Iterations:    iters,
	}
	for i, w := range workerIDs {
		est.Sensitivity[w] = sens[i]
		est.Specificity[w] = spec[i]
	}
	for i, f := range taskIDs {
		est.TaskPosterior[f] = q[i]
	}
	return est, nil
}
