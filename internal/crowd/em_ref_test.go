package crowd

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file keeps the EM loops as they were before their arithmetic was
// trimmed: four logs per worker, two Exps per task, and fresh slices every
// iteration; and the Dawid–Skene estimator as it was before it shared the
// symmetric estimator's loop. The tests below require the estimators to
// reproduce them bit for bit.

func refEstimateEM(answers []Answer, opts EMOptions) (*EMEstimate, error) {
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
	for restart := 0; restart < opts.Restarts; restart++ {
		initAcc := make([]float64, len(workerIDs))
		for i := range initAcc {
			if restart == 0 {
				initAcc[i] = opts.InitAccuracy
			} else {
				initAcc[i] = 0.52 + 0.46*rng.Float64()
			}
		}
		acc, q, pi, iters := refRunSymmetricEM(votes, perWorker, initAcc, len(taskIDs), opts, restart == 0)
		ll := refLogLikelihood(votes, refVoteLogs(acc, acc), pi)
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
func refRunSymmetricEM(votes [][]emVote, perWorker []int, initAcc []float64,
	nTasks int, opts EMOptions, majorityInit bool) (acc, q []float64, pi float64, iters int) {

	acc = append([]float64(nil), initAcc...)
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
		refEStep(votes, refVoteLogs(acc, acc), pi, q)
	}

	for iter := 0; iter < opts.MaxIter; iter++ {
		iters = iter + 1
		// M-step: worker accuracies and truth prior from the posteriors.
		next := make([]float64, len(acc))
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
		acc = next
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
		refEStep(votes, refVoteLogs(acc, acc), pi, q)
		if maxDelta < opts.Tol {
			break
		}
	}
	return acc, q, pi, iters
}
func refEstimateDawidSkene(answers []Answer, opts EMOptions) (*ConfusionEstimate, error) {
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

	iters := 0
	for iter := 0; iter < opts.MaxIter; iter++ {
		iters = iter + 1
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
		refEStep(votes, refVoteLogs(sens, spec), pi, q)
		if maxDelta < opts.Tol {
			break
		}
	}

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
func refVoteLogs(sens, spec []float64) []workerLogs {
	logs := make([]workerLogs, len(sens))
	for w := range logs {
		logs[w] = workerLogs{
			yes: voteLog{t: math.Log(sens[w]), f: math.Log(1 - spec[w])},
			no:  voteLog{t: math.Log(1 - sens[w]), f: math.Log(spec[w])},
		}
	}
	return logs
}
func refEStep(votes [][]emVote, logs []workerLogs, pi float64, q []float64) {
	logPi, log1mPi := math.Log(pi), math.Log(1-pi)
	for fi, vs := range votes {
		logT, logF := taskLogs(vs, logs, logPi, log1mPi)
		m := math.Max(logT, logF)
		q[fi] = math.Exp(logT-m) / (math.Exp(logT-m) + math.Exp(logF-m))
	}
}
func refLogLikelihood(votes [][]emVote, logs []workerLogs, pi float64) float64 {
	logPi, log1mPi := math.Log(pi), math.Log(1-pi)
	var total float64
	for _, vs := range votes {
		logT, logF := taskLogs(vs, logs, logPi, log1mPi)
		m := math.Max(logT, logF)
		total += m + math.Log(math.Exp(logT-m)+math.Exp(logF-m))
	}
	return total
}

// randomEMLog is a random answer log: up to 9 workers of random accuracy
// answering up to 40 facts, each fact by a random subset of them, some
// facts more than once by the same worker.
func randomEMLog(rng *rand.Rand) []Answer {
	nW, nF := 1+rng.Intn(9), 1+rng.Intn(40)
	acc := make([]float64, nW)
	for w := range acc {
		acc[w] = rng.Float64()
	}
	var log []Answer
	for f := 0; f < nF; f++ {
		truth := rng.Intn(2) == 0
		for n := 1 + rng.Intn(5); n > 0; n-- {
			w := rng.Intn(nW)
			log = append(log, Answer{Fact: f, Value: truth == (rng.Float64() < acc[w]), Worker: fmt.Sprintf("w%d", w)})
		}
	}
	return log
}

// requireBits fails t unless got and want are the same float64 bits.
func requireBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v, reference %v", what, got, want)
	}
}

// TestEstimateEMMatchesReference: the symmetric estimator reproduces the
// reference loops bit for bit — every worker accuracy, task posterior and
// the prior — and runs as many iterations, over random answer logs and
// options.
func TestEstimateEMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		log := randomEMLog(rng)
		opts := EMOptions{Seed: rng.Int63n(100), Restarts: 1 + rng.Intn(6)}
		if rng.Intn(3) == 0 {
			opts.MaxIter, opts.Tol = 1+rng.Intn(10), 1e-12
		}
		got, err := EstimateEM(log, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refEstimateEM(log, opts)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("trial %d", trial)
		if got.Iterations != want.Iterations || len(got.WorkerAccuracy) != len(want.WorkerAccuracy) ||
			len(got.TaskPosterior) != len(want.TaskPosterior) {
			t.Fatalf("%s: %d iterations, %d workers, %d tasks; reference %d, %d, %d", what,
				got.Iterations, len(got.WorkerAccuracy), len(got.TaskPosterior),
				want.Iterations, len(want.WorkerAccuracy), len(want.TaskPosterior))
		}
		for w, a := range want.WorkerAccuracy {
			requireBits(t, what+" accuracy of "+w, got.WorkerAccuracy[w], a)
		}
		for f, q := range want.TaskPosterior {
			requireBits(t, fmt.Sprintf("%s posterior of fact %d", what, f), got.TaskPosterior[f], q)
		}
		requireBits(t, what+" prior", got.Prior, want.Prior)
	}
}

// TestEstimateDawidSkeneMatchesReference: the Dawid–Skene estimator
// reproduces the reference loops bit for bit — every sensitivity,
// specificity, task posterior and the prior — and runs as many iterations,
// over random answer logs and options. Restarts and Seed vary although the
// estimator ignores both.
func TestEstimateDawidSkeneMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		log := randomEMLog(rng)
		opts := EMOptions{Seed: rng.Int63n(100), Restarts: 1 + rng.Intn(6)}
		if rng.Intn(3) == 0 {
			opts.MaxIter, opts.Tol = 1+rng.Intn(10), 1e-12
		}
		got, err := EstimateDawidSkene(log, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refEstimateDawidSkene(log, opts)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("trial %d", trial)
		if got.Iterations != want.Iterations || len(got.Sensitivity) != len(want.Sensitivity) ||
			len(got.Specificity) != len(want.Specificity) || len(got.TaskPosterior) != len(want.TaskPosterior) {
			t.Fatalf("%s: %d iterations, %d/%d workers, %d tasks; reference %d, %d/%d, %d", what,
				got.Iterations, len(got.Sensitivity), len(got.Specificity), len(got.TaskPosterior),
				want.Iterations, len(want.Sensitivity), len(want.Specificity), len(want.TaskPosterior))
		}
		for w, sn := range want.Sensitivity {
			requireBits(t, what+" sensitivity of "+w, got.Sensitivity[w], sn)
			requireBits(t, what+" specificity of "+w, got.Specificity[w], want.Specificity[w])
		}
		for f, q := range want.TaskPosterior {
			requireBits(t, fmt.Sprintf("%s posterior of fact %d", what, f), got.TaskPosterior[f], q)
		}
		requireBits(t, what+" prior", got.Prior, want.Prior)
	}
}

// TestEMKernelsMatchReference: the vote-log table, the E-step and the log
// likelihood — shared with the Dawid–Skene estimator — reproduce the
// reference loops bit for bit, for symmetric and asymmetric channels
// anywhere in [0, 1] and priors up to the clamps.
func TestEMKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		nW, nF := 1+rng.Intn(6), 1+rng.Intn(20)
		sens, spec := make([]float64, nW), make([]float64, nW)
		for w := range sens {
			sens[w], spec[w] = rng.Float64(), rng.Float64()
			switch rng.Intn(4) {
			case 0:
				spec[w] = sens[w]
			case 1:
				sens[w], spec[w] = []float64{0.05, 0.99, 0.5}[rng.Intn(3)], []float64{0.05, 0.99, 0.5}[rng.Intn(3)]
			}
		}
		votes := make([][]emVote, nF)
		for f := range votes {
			for n := rng.Intn(6); n > 0; n-- {
				votes[f] = append(votes[f], emVote{w: rng.Intn(nW), value: rng.Intn(2) == 0})
			}
		}
		pi := []float64{0.01, 0.99, 0.5, rng.Float64()}[rng.Intn(4)]
		what := fmt.Sprintf("trial %d", trial)
		logs, ref := voteLogs(make([]workerLogs, nW), sens, spec), refVoteLogs(sens, spec)
		for w := range ref {
			requireBits(t, what+" yes.t", logs[w].yes.t, ref[w].yes.t)
			requireBits(t, what+" yes.f", logs[w].yes.f, ref[w].yes.f)
			requireBits(t, what+" no.t", logs[w].no.t, ref[w].no.t)
			requireBits(t, what+" no.f", logs[w].no.f, ref[w].no.f)
		}
		q, refQ := make([]float64, nF), make([]float64, nF)
		eStep(votes, logs, pi, q)
		refEStep(votes, ref, pi, refQ)
		for f := range q {
			requireBits(t, fmt.Sprintf("%s posterior %d", what, f), q[f], refQ[f])
		}
		requireBits(t, what+" log likelihood", logLikelihood(votes, logs, pi), refLogLikelihood(votes, ref, pi))
	}
}
