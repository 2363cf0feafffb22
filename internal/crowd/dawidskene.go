package crowd

import (
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
// redundant answer log. Options are shared with the symmetric estimator,
// but it runs once, from the majority-vote start, and ignores Restarts and
// Seed.
func EstimateDawidSkene(answers []Answer, opts EMOptions) (*ConfusionEstimate, error) {
	x, err := indexAnswers(answers)
	if err != nil {
		return nil, err
	}
	if opts, err = opts.resolve(); err != nil {
		return nil, err
	}

	nW := len(x.workers)
	sens := make([]float64, nW)
	spec := make([]float64, nW)
	for i := range sens {
		sens[i] = opts.InitAccuracy
		spec[i] = opts.InitAccuracy
	}
	q := make([]float64, len(x.facts))
	x.majorityStart(q)

	clamp := func(v float64) float64 {
		if v < opts.ClampLo {
			return opts.ClampLo
		}
		if v > opts.ClampHi {
			return opts.ClampHi
		}
		return v
	}

	// M-step: a worker's sensitivity is the posterior mass of its "true"
	// votes over that of all its votes on true facts, and its specificity
	// likewise for "false" votes on false facts.
	sensNum := make([]float64, nW)
	sensDen := make([]float64, nW)
	specNum := make([]float64, nW)
	specDen := make([]float64, nW)
	mStep := func() ([]float64, []float64, float64) {
		clear(sensNum)
		clear(sensDen)
		clear(specNum)
		clear(specDen)
		for fi, vs := range x.votes {
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
		return sens, spec, maxDelta
	}

	pi, iters := x.fitEM(q, make([]workerLogs, nW), opts, mStep)
	pi = canonicalize(sens, spec, q, pi)
	return &ConfusionEstimate{
		Sensitivity:   x.byWorker(sens),
		Specificity:   x.byWorker(spec),
		TaskPosterior: x.byFact(q),
		Prior:         pi,
		Iterations:    iters,
	}, nil
}
