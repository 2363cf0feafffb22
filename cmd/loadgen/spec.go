package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"crowdfusion/client"
	"crowdfusion/internal/crowd"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/platform"
)

// selectorName is the selector every generated session uses: the paper's
// Approx+Prune+Pre greedy, the service default and the one the oracle
// re-runs as core.NewGreedyPrunePre.
const selectorName = "Approx+Prune+Pre"

// answerForm is how a session's clients submit a round's judgments.
type answerForm int

const (
	formArrays    answerForm = iota // one request, parallel tasks/answers arrays
	formPartials                    // one single-judgment partial request per task
	formJudgments                   // one request of worker-attributed judgments
)

// spec is one generated refinement session: everything the generator
// sends the service and everything the crowd simulation answers from.
type spec struct {
	index     int
	marginals []float64
	truth     dist.World
	crowdSeed int64
	pc        float64
	k, budget int
	model     string
	form      answerForm
}

// shape is a workload's session parameters; newSpec fills in the random
// parts.
type shape struct {
	facts     int
	pc        float64
	k, budget int
	model     string
	form      answerForm
}

// newSpec derives session i of a run from the run seed alone, so the same
// seed always yields the same sessions whichever client ends up running
// them. Marginals are drawn away from 0 and 1 so every fact stays worth
// asking about, and the hidden truth is drawn from the marginals.
func newSpec(seed int64, i int, sh shape) spec {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(i)))
	sp := spec{
		index:     i,
		marginals: make([]float64, sh.facts),
		crowdSeed: rng.Int64(),
		pc:        sh.pc,
		k:         sh.k,
		budget:    sh.budget,
		model:     sh.model,
		form:      sh.form,
	}
	for f := range sp.marginals {
		sp.marginals[f] = 0.15 + 0.7*rng.Float64()
		if rng.Float64() < sp.marginals[f] {
			sp.truth |= dist.World(1) << f
		}
	}
	return sp
}

func (sp spec) request() client.CreateSessionRequest {
	return client.CreateSessionRequest{
		Marginals:   sp.marginals,
		Selector:    selectorName,
		Pc:          sp.pc,
		K:           sp.k,
		Budget:      sp.budget,
		WorkerModel: sp.model,
	}
}

// crowdPool is the worker pool every session's simulated platform draws
// from: twelve workers with accuracies evenly spaced over 0.70–0.95. It is
// crowd configuration, not input, so it does not vary with the seed: a
// seeded pool of near-0.5 workers would slow every EM refit of a run and
// read as a change in the service.
func crowdPool() (*crowd.Pool, error) {
	workers := make([]crowd.Worker, 12)
	for i := range workers {
		workers[i] = crowd.Worker{
			ID:       fmt.Sprintf("w%02d", i),
			Accuracy: 0.7 + 0.25*float64(i)/float64(len(workers)-1),
		}
	}
	return crowd.NewPool(workers)
}

// platformFor builds the session's simulated crowd. Its answers depend only
// on the crowd seed and the order tasks are posted in, so a fresh platform
// replays a session's crowd exactly — which is what the oracle relies on.
func (sp spec) platformFor(pool *crowd.Pool) (*platform.Platform, error) {
	p, err := platform.New(platform.Config{Truth: sp.truth, Pool: pool, Redundancy: 3, Seed: sp.crowdSeed})
	if err != nil {
		return nil, fmt.Errorf("session %d crowd: %w", sp.index, err)
	}
	return p, nil
}

// judgment is one round's crowd response in the session's answer form:
// majority-vote answers for fixed sessions, attributed judgments for em.
type judgment struct {
	answers   []bool
	judgments []client.Judgment
}

// ask posts tasks to the session's crowd.
func (sp spec) ask(ctx context.Context, p *platform.Platform, tasks []int) (judgment, error) {
	if sp.form == formJudgments {
		js, err := p.Attributed().JudgmentsContext(ctx, tasks)
		return judgment{judgments: js}, err
	}
	return judgment{answers: p.Answers(tasks)}, nil
}

// round runs one select–answer round on session id, recording each request
// into m. It returns the round's service time (the sum of its request
// latencies), whether answers were merged — a select can instead report
// the session done — and whether the session is done. answer supplies the
// crowd's response to the selected batch.
func (m *meter) round(ctx context.Context, cl *client.Client, id string, sp spec,
	answer func(tasks []int) (judgment, error)) (svc time.Duration, merged, done bool, err error) {
	var sel *client.SelectResponse
	d, err := m.call(&m.selects, func() (err error) {
		sel, err = cl.Select(ctx, id, 0)
		return err
	})
	svc += d
	if err != nil {
		return svc, false, false, err
	}
	if sel.Done || len(sel.Tasks) == 0 {
		return svc, false, true, nil
	}
	j, err := answer(sel.Tasks)
	if err != nil {
		return svc, false, false, err
	}
	var resp *client.AnswersResponse
	submit := func(f func() (*client.AnswersResponse, error)) error {
		d, err := m.call(&m.answers, func() (err error) {
			resp, err = f()
			return err
		})
		svc += d
		m.submissions.Add(1)
		return err
	}
	switch sp.form {
	case formArrays:
		err = submit(func() (*client.AnswersResponse, error) {
			return cl.SubmitAnswers(ctx, id, sel.Tasks, j.answers, sel.Version)
		})
	case formPartials:
		for i, t := range sel.Tasks {
			if err = submit(func() (*client.AnswersResponse, error) {
				return cl.SubmitAnswer(ctx, id, t, j.answers[i], sel.Version)
			}); err != nil {
				break
			}
		}
	case formJudgments:
		err = submit(func() (*client.AnswersResponse, error) {
			return cl.SubmitJudgments(ctx, id, j.judgments, sel.Version, false)
		})
	}
	if err != nil {
		return svc, false, false, err
	}
	if !resp.Merged {
		return svc, false, false, m.violate(fmt.Errorf("session %d: answers for version %d were not merged", sp.index, sel.Version))
	}
	m.roundsDone.Add(1)
	return svc, true, resp.Done, nil
}
