package crowd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
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
	// finite (defaults 0.05, 0.99).
	ClampLo, ClampHi float64
	// Restarts runs EM that many times from perturbed initializations
	// and keeps the highest-likelihood solution; EM likelihoods are
	// multi-modal (e.g. one expert among coin-flippers has a spurious
	// fixpoint where everyone looks mediocre). Default 15. The first
	// restart always uses the clean majority-vote initialization.
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

// ErrNoAnswers is returned when the answer log is empty.
var ErrNoAnswers = errors.New("crowd: no answers to estimate from")

// EstimateEM runs EM on an answer log. Answers must carry worker IDs;
// anonymous answers (empty Worker) are rejected because the model needs to
// attribute agreement.
func EstimateEM(answers []Answer, opts EMOptions) (*EMEstimate, error) {
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
	perWorker := make([]int, len(workerIDs))
	for _, a := range answers {
		fi := taskIdx[a.Fact]
		votes[fi] = append(votes[fi], emVote{w: workerIdx[a.Worker], value: a.Value})
		perWorker[workerIdx[a.Worker]]++
	}

	// Run EM from several initializations and keep the solution with the
	// highest marginal likelihood of the observed answers.
	rng := rand.New(rand.NewSource(opts.Seed + 777))
	var bestAcc, bestQ []float64
	var bestPi float64
	bestIters := 0
	bestLL := math.Inf(-1)
	logs := make([]workerLogs, len(workerIDs))
	for restart := 0; restart < opts.Restarts; restart++ {
		initAcc := make([]float64, len(workerIDs))
		for i := range initAcc {
			if restart == 0 {
				initAcc[i] = opts.InitAccuracy
			} else {
				initAcc[i] = 0.52 + 0.46*rng.Float64()
			}
		}
		acc, q, pi, iters := runSymmetricEM(votes, perWorker, initAcc, logs, len(taskIDs), opts, restart == 0)
		ll := logLikelihood(votes, voteLogs(logs, acc, acc), pi)
		if ll > bestLL {
			bestLL = ll
			bestAcc, bestQ, bestPi, bestIters = acc, q, pi, iters
		}
	}
	acc, q, pi := bestAcc, bestQ, bestPi
	// Canonicalize: the symmetric model is invariant under flipping all
	// accuracies and truths (a -> 1-a, q -> 1-q, pi -> 1-pi gives the
	// same likelihood); report the branch where workers are on average
	// better than chance, per the paper's Pc >= 0.5 assumption.
	var mean float64
	for _, a := range acc {
		mean += a
	}
	if mean/float64(len(acc)) < 0.5 {
		for i := range acc {
			acc[i] = 1 - acc[i]
		}
		for i := range q {
			q[i] = 1 - q[i]
		}
		pi = 1 - pi
	}

	est := &EMEstimate{
		WorkerAccuracy: make(map[string]float64, len(workerIDs)),
		TaskPosterior:  make(map[int]float64, len(taskIDs)),
		Prior:          pi,
		Iterations:     bestIters,
	}
	for i, w := range workerIDs {
		est.WorkerAccuracy[w] = acc[i]
	}
	for i, f := range taskIDs {
		est.TaskPosterior[f] = q[i]
	}
	return est, nil
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

// runSymmetricEM executes one EM run from the accuracies initAcc, which it
// takes over, tabulating vote logs in logs (one per worker). When
// majorityInit is true the task posteriors start from smoothed vote shares
// (the original Dawid & Skene recipe); otherwise they start from the
// E-step of the given accuracies.
func runSymmetricEM(votes [][]emVote, perWorker []int, initAcc []float64, logs []workerLogs,
	nTasks int, opts EMOptions, majorityInit bool) (acc, q []float64, pi float64, iters int) {

	acc = initAcc
	next := make([]float64, len(acc))
	q = make([]float64, nTasks)
	pi = 0.5
	if majorityInit {
		for fi, vs := range votes {
			trues := 0
			for _, v := range vs {
				if v.value {
					trues++
				}
			}
			q[fi] = (float64(trues) + 0.5) / (float64(len(vs)) + 1)
		}
	} else {
		eStep(votes, voteLogs(logs, acc, acc), pi, q)
	}

	for iter := 0; iter < opts.MaxIter; iter++ {
		iters = iter + 1
		// M-step: worker accuracies and truth prior from the posteriors.
		clear(next)
		for fi, vs := range votes {
			for _, v := range vs {
				if v.value {
					next[v.w] += q[fi]
				} else {
					next[v.w] += 1 - q[fi]
				}
			}
		}
		maxDelta := 0.0
		for wi := range next {
			if perWorker[wi] == 0 {
				next[wi] = acc[wi]
				continue
			}
			next[wi] /= float64(perWorker[wi])
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
		eStep(votes, voteLogs(logs, acc, acc), pi, q)
		if maxDelta < opts.Tol {
			break
		}
	}
	return acc, q, pi, iters
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
