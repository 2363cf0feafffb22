package crowd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// emVote is one (worker, judgment) pair attached to a task; the symmetric
// and the Dawid–Skene estimators share it.
type emVote struct {
	w     int
	value bool
}

// EM estimation of per-worker accuracy without gold labels, in the style of
// Dawid & Skene (1979) specialized to symmetric binary confusion: when a
// platform assigns each task to several workers, the agreement structure
// alone identifies who is reliable. This complements the paper's
// gold-sample pre-test (Section V-C3): it needs no ground truth, only
// redundancy.
//
// Model: task f has a latent truth t_f ~ Bernoulli(pi); worker w answers
// correctly with probability p_w independent of the task. EM alternates:
//
//	E-step: q_f = P(t_f = true | answers, p, pi)
//	M-step: p_w = sum over w's answers of P(answer correct) / #answers
//	        pi  = mean of q_f
type EMEstimate struct {
	// WorkerAccuracy maps worker ID to estimated accuracy.
	WorkerAccuracy map[string]float64
	// TaskPosterior maps fact index to P(fact true | answers).
	TaskPosterior map[int]float64
	// Prior is the estimated fraction of true facts.
	Prior float64
	// Iterations actually run before convergence.
	Iterations int
}

// EMOptions tunes the estimator.
type EMOptions struct {
	// MaxIter bounds EM iterations (default 100).
	MaxIter int
	// Tol stops when no accuracy moves more than this (default 1e-6).
	Tol float64
	// InitAccuracy seeds every worker (default 0.7).
	InitAccuracy float64
	// ClampLo/ClampHi keep accuracies away from 0/1 so likelihoods stay
	// finite (defaults 0.05, 0.99). After the defaults are applied,
	// ClampLo must not exceed ClampHi: the estimators refuse such options
	// with ErrClampOrder.
	ClampLo, ClampHi float64
	// Restarts runs EM that many times from perturbed initializations
	// and keeps the highest-likelihood solution; EM likelihoods are
	// multi-modal (e.g. one expert among coin-flippers has a spurious
	// fixpoint where everyone looks mediocre). Default 15. The first
	// restart always uses the clean majority-vote initialization.
	// EstimateDawidSkene runs once, from that start, and ignores Restarts.
	Restarts int
	// Seed drives the restart perturbations (deterministic).
	Seed int64
}

func (o EMOptions) normalized() EMOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.InitAccuracy <= 0 || o.InitAccuracy >= 1 {
		o.InitAccuracy = 0.7
	}
	if o.ClampLo <= 0 {
		o.ClampLo = 0.05
	}
	if o.ClampHi <= 0 || o.ClampHi >= 1 {
		o.ClampHi = 0.99
	}
	if o.Restarts <= 0 {
		o.Restarts = 15
	}
	return o
}

// resolve applies the defaults and refuses clamp bounds that cross (or are
// NaN), for which the two M-steps would clamp to different ends.
func (o EMOptions) resolve() (EMOptions, error) {
	o = o.normalized()
	if !(o.ClampLo <= o.ClampHi) {
		return o, fmt.Errorf("%w: %v > %v", ErrClampOrder, o.ClampLo, o.ClampHi)
	}
	return o, nil
}

var (
	// ErrNoAnswers is returned when the answer log is empty.
	ErrNoAnswers = errors.New("crowd: no answers to estimate from")
	// ErrClampOrder is returned for options whose ClampLo exceeds their
	// ClampHi once the defaults are applied.
	ErrClampOrder = errors.New("crowd: EMOptions.ClampLo exceeds ClampHi")
)

// answerIndex is an answer log grouped for EM, shared by the symmetric and
// the Dawid–Skene estimators: workers and facts sorted, each fact's votes
// in log order, and each worker's vote count.
type answerIndex struct {
	workers   []string
	facts     []int
	votes     [][]emVote // per fact, parallel to facts
	perWorker []int      // parallel to workers
}

// indexAnswers groups an answer log. Answers must carry worker IDs;
// anonymous answers (empty Worker) are rejected because the models need to
// attribute agreement.
func indexAnswers(answers []Answer) (answerIndex, error) {
	if len(answers) == 0 {
		return answerIndex{}, ErrNoAnswers
	}
	var x answerIndex
	workerIdx := make(map[string]int)
	taskIdx := make(map[int]int)
	for _, a := range answers {
		if a.Worker == "" {
			return answerIndex{}, fmt.Errorf("crowd: answer for fact %d has no worker ID", a.Fact)
		}
		if _, ok := workerIdx[a.Worker]; !ok {
			workerIdx[a.Worker] = -1
			x.workers = append(x.workers, a.Worker)
		}
		if _, ok := taskIdx[a.Fact]; !ok {
			taskIdx[a.Fact] = -1
			x.facts = append(x.facts, a.Fact)
		}
	}
	sort.Strings(x.workers)
	for i, w := range x.workers {
		workerIdx[w] = i
	}
	sort.Ints(x.facts)
	for i, f := range x.facts {
		taskIdx[f] = i
	}

	x.votes = make([][]emVote, len(x.facts))
	x.perWorker = make([]int, len(x.workers))
	for _, a := range answers {
		fi := taskIdx[a.Fact]
		x.votes[fi] = append(x.votes[fi], emVote{w: workerIdx[a.Worker], value: a.Value})
		x.perWorker[workerIdx[a.Worker]]++
	}
	return x, nil
}

// majorityStart fills q with each fact's smoothed share of "true" votes:
// the majority-vote initialization of the posteriors, the original
// Dawid & Skene recipe. Starting EM from the raw vote shares instead of
// flat parameters avoids most of the spurious local optima that plague
// confusion-matrix estimation with few workers per task.
func (x *answerIndex) majorityStart(q []float64) {
	for fi, vs := range x.votes {
		trues := 0
		for _, v := range vs {
			if v.value {
				trues++
			}
		}
		q[fi] = (float64(trues) + 0.5) / (float64(len(vs)) + 1)
	}
}

// fitEM runs EM from the task posteriors q, updating them in place. Each
// iteration re-estimates the worker channels from q (mStep, which returns
// sens[w] = P(yes | true), spec[w] = P(no | false) and the largest move of
// any parameter), the truth prior as the mean of q clamped to
// [0.01, 0.99], then q from both. It stops after an iteration that moved
// no parameter by Tol or more, or after MaxIter. logs is scratch for the
// vote-log table, one entry per worker.
func (x *answerIndex) fitEM(q []float64, logs []workerLogs, opts EMOptions,
	mStep func() (sens, spec []float64, maxDelta float64)) (pi float64, iters int) {

	for iter := 0; iter < opts.MaxIter; iter++ {
		iters = iter + 1
		sens, spec, maxDelta := mStep()
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
		eStep(x.votes, voteLogs(logs, sens, spec), pi, q)
		if maxDelta < opts.Tol {
			break
		}
	}
	return pi, iters
}

// canonicalize resolves the label-flip symmetry both models share: flipping
// every channel and every truth (sens -> 1-sens, spec -> 1-spec,
// q -> 1-q, pi -> 1-pi) gives the same likelihood. It keeps the branch
// where workers' mean balanced accuracy is better than chance, per the
// paper's Pc >= 0.5 assumption, and returns the prior of that branch. The
// symmetric model passes its accuracies as sens and a nil spec.
func canonicalize(sens, spec, q []float64, pi float64) float64 {
	var mean float64
	for i, a := range sens {
		if spec != nil {
			a = (a + spec[i]) / 2
		}
		mean += a
	}
	if mean/float64(len(sens)) < 0.5 {
		for i := range sens {
			sens[i] = 1 - sens[i]
		}
		for i := range spec {
			spec[i] = 1 - spec[i]
		}
		for i := range q {
			q[i] = 1 - q[i]
		}
		pi = 1 - pi
	}
	return pi
}

// byWorker maps each worker ID to its entry of vals.
func (x *answerIndex) byWorker(vals []float64) map[string]float64 {
	m := make(map[string]float64, len(x.workers))
	for i, w := range x.workers {
		m[w] = vals[i]
	}
	return m
}

// byFact maps each fact to its posterior in q.
func (x *answerIndex) byFact(q []float64) map[int]float64 {
	m := make(map[int]float64, len(x.facts))
	for i, f := range x.facts {
		m[f] = q[i]
	}
	return m
}

// restartRands holds the sources of EstimateEM's restart perturbations. A
// math/rand source is about 4.9 KB; reseeded, a pooled one draws exactly
// what a new one with that seed would.
var restartRands = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// EstimateEM runs EM on an answer log. Answers must carry worker IDs;
// anonymous answers (empty Worker) are rejected because the model needs to
// attribute agreement.
func EstimateEM(answers []Answer, opts EMOptions) (*EMEstimate, error) {
	x, err := indexAnswers(answers)
	if err != nil {
		return nil, err
	}
	if opts, err = opts.resolve(); err != nil {
		return nil, err
	}

	// One restart's state: acc holds the accuracies, next the M-step's
	// scratch, q the task posteriors. Every restart overwrites all three,
	// so they are allocated once, and a restart that beats the best so far
	// swaps its acc and q with the best's.
	acc := make([]float64, len(x.workers))
	next := make([]float64, len(x.workers))
	q := make([]float64, len(x.facts))
	bestAcc := make([]float64, len(x.workers))
	bestQ := make([]float64, len(x.facts))
	// M-step: a worker's accuracy is the posterior probability that its
	// votes are correct, averaged over its votes. Every indexed worker has
	// at least one vote.
	mStep := func() (sens, spec []float64, maxDelta float64) {
		clear(next)
		for fi, vs := range x.votes {
			for _, v := range vs {
				if v.value {
					next[v.w] += q[fi]
				} else {
					next[v.w] += 1 - q[fi]
				}
			}
		}
		for wi := range next {
			next[wi] /= float64(x.perWorker[wi])
			if next[wi] < opts.ClampLo {
				next[wi] = opts.ClampLo
			}
			if next[wi] > opts.ClampHi {
				next[wi] = opts.ClampHi
			}
			if d := math.Abs(next[wi] - acc[wi]); d > maxDelta {
				maxDelta = d
			}
		}
		acc, next = next, acc
		return acc, acc, maxDelta
	}

	// Run EM from several initializations and keep the solution with the
	// highest marginal likelihood of the observed answers. The first starts
	// from the majority vote, the others from random accuracies.
	rng := restartRands.Get().(*rand.Rand)
	defer restartRands.Put(rng)
	rng.Seed(opts.Seed + 777)
	var bestPi float64
	bestIters := 0
	bestLL := math.Inf(-1)
	logs := make([]workerLogs, len(x.workers))
	for restart := 0; restart < opts.Restarts; restart++ {
		for i := range acc {
			if restart == 0 {
				acc[i] = opts.InitAccuracy
			} else {
				acc[i] = 0.52 + 0.46*rng.Float64()
			}
		}
		if restart == 0 {
			x.majorityStart(q)
		} else {
			eStep(x.votes, voteLogs(logs, acc, acc), 0.5, q)
		}
		pi, iters := x.fitEM(q, logs, opts, mStep)
		ll := logLikelihood(x.votes, voteLogs(logs, acc, acc), pi)
		if ll > bestLL {
			bestLL = ll
			acc, bestAcc = bestAcc, acc
			q, bestQ = bestQ, q
			bestPi, bestIters = pi, iters
		}
	}
	pi := canonicalize(bestAcc, nil, bestQ, bestPi)
	return &EMEstimate{
		WorkerAccuracy: x.byWorker(bestAcc),
		TaskPosterior:  x.byFact(bestQ),
		Prior:          pi,
		Iterations:     bestIters,
	}, nil
}

// PoolAccuracy returns the mean estimated worker accuracy — the effective
// Pc a CrowdFusion engine should assume for this crowd when tasks are
// assigned to uniformly drawn workers.
func (e *EMEstimate) PoolAccuracy() float64 {
	if len(e.WorkerAccuracy) == 0 {
		return 0
	}
	var sum float64
	for _, a := range e.WorkerAccuracy {
		sum += a
	}
	return sum / float64(len(e.WorkerAccuracy))
}

// voteLog is what one vote adds to a task's two log joints: t to
// log P(votes, fact true) and f to log P(votes, fact false).
type voteLog struct{ t, f float64 }

// workerLogs is one worker's voteLog for each vote value.
type workerLogs struct{ yes, no voteLog }

// voteLogs tabulates into logs every worker's vote logs for one parameter
// set — sens[w] = P(yes | true), spec[w] = P(no | false); the symmetric
// model passes its accuracies as both — so each EM iteration takes the
// logs once per worker and the per-vote loops only look them up. A worker
// whose sens and spec are equal, as every symmetric one is, takes two logs:
// a "no" vote's logs are then a "yes" vote's, swapped.
func voteLogs(logs []workerLogs, sens, spec []float64) []workerLogs {
	for w := range logs {
		yes := voteLog{t: math.Log(sens[w]), f: math.Log(1 - spec[w])}
		no := voteLog{t: yes.f, f: yes.t}
		if sens[w] != spec[w] {
			no = voteLog{t: math.Log(1 - sens[w]), f: math.Log(spec[w])}
		}
		logs[w] = workerLogs{yes: yes, no: no}
	}
	return logs
}

// taskLogs returns log P(vs, fact true) and log P(vs, fact false), each
// summed from the truth prior's log in vote order.
func taskLogs(vs []emVote, logs []workerLogs, logPi, log1mPi float64) (logT, logF float64) {
	logT, logF = logPi, log1mPi
	for _, v := range vs {
		l := logs[v.w].no
		if v.value {
			l = logs[v.w].yes
		}
		logT += l.t
		logF += l.f
	}
	return logT, logF
}

// eStep fills q with posterior truth probabilities in log space:
// e^logT / (e^logT + e^logF), both scaled by the larger, whose own term is
// then e^0, exactly 1. So each task takes one Exp.
func eStep(votes [][]emVote, logs []workerLogs, pi float64, q []float64) {
	logPi, log1mPi := math.Log(pi), math.Log(1-pi)
	for fi, vs := range votes {
		logT, logF := taskLogs(vs, logs, logPi, log1mPi)
		if logT >= logF {
			q[fi] = 1 / (1 + math.Exp(logF-logT))
		} else {
			e := math.Exp(logT - logF)
			q[fi] = e / (e + 1)
		}
	}
}

// logLikelihood scores a parameter set: the marginal log probability of
// every task's votes under the two latent truth values.
func logLikelihood(votes [][]emVote, logs []workerLogs, pi float64) float64 {
	logPi, log1mPi := math.Log(pi), math.Log(1-pi)
	var total float64
	for _, vs := range votes {
		logT, logF := taskLogs(vs, logs, logPi, log1mPi)
		// The larger's term is e^0, exactly 1, as in eStep.
		m := math.Max(logT, logF)
		total += m + math.Log(1+math.Exp(math.Min(logT, logF)-m))
	}
	return total
}
