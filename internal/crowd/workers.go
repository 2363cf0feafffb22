package crowd

import "sort"

// Worker-model names: how crowd accuracy enters a merge. fixed conditions
// every judgment on the scalar pc (Definition 2); em and dawid-skene learn a
// channel per worker with EstimateEM and EstimateDawidSkene respectively.
const (
	WorkerModelFixed      = "fixed"
	WorkerModelEM         = "em"
	WorkerModelDawidSkene = "dawid-skene"
)

// priorStrength is the pseudo-count of the Beta prior anchoring each fitted
// channel at pc: a worker with n answers sits at (4·pc + n·estimate)/(4 + n),
// so a few lucky agreements cannot lift anyone to 0.99, yet a planted
// adversary falls below an honest worker within a couple of rounds.
const priorStrength = 4.0

// WorkerModel is a per-worker crowd channel: a worker-model name, the crowd
// accuracy pc every unfitted worker takes, and the channels of the last
// successful Fit: sens and spec shrunk toward pc, and the raw balanced accuracy.
type WorkerModel struct {
	name     string
	pc       float64
	seed     int64
	channels map[string]workerChannel
}

type workerChannel struct{ sens, spec, raw float64 }

// NewWorkerModel returns an unfitted model. seed drives the estimator, so
// fitting the same answers again gives the same channels bit for bit.
func NewWorkerModel(name string, pc float64, seed int64) WorkerModel {
	return WorkerModel{name: name, pc: pc, seed: seed}
}

// Name returns the model's worker-model name.
func (m *WorkerModel) Name() string { return m.name }

// Fit estimates every worker's channel from answers, shrunk toward pc by
// each worker's answer count, and reports whether it did. Under the fixed
// model, on an empty log or when the estimator fails it returns false and
// keeps the channels it had.
func (m *WorkerModel) Fit(answers []Answer) bool {
	var rawSens, rawSpec map[string]float64
	switch opts := (EMOptions{Seed: m.seed}); m.name {
	case WorkerModelEM:
		if est, err := EstimateEM(answers, opts); err == nil {
			rawSens, rawSpec = est.WorkerAccuracy, est.WorkerAccuracy
		}
	case WorkerModelDawidSkene:
		if est, err := EstimateDawidSkene(answers, opts); err == nil {
			rawSens, rawSpec = est.Sensitivity, est.Specificity
		}
	}
	if rawSens == nil { // the fixed model, or an estimator error such as ErrNoAnswers
		return false
	}
	support := make(map[string]int, len(rawSens))
	for _, a := range answers {
		support[a.Worker]++
	}
	m.channels = make(map[string]workerChannel, len(rawSens))
	for w, sn := range rawSens {
		n := float64(support[w])
		sp := rawSpec[w]
		m.channels[w] = workerChannel{
			sens: (priorStrength*m.pc + n*sn) / (priorStrength + n),
			spec: (priorStrength*m.pc + n*sp) / (priorStrength + n),
			raw:  (sn + sp) / 2,
		}
	}
	return true
}

// Channel returns a worker's smoothed sensitivity and specificity and its
// raw balanced accuracy from the last fit; all three are pc for a worker
// that fit did not cover, and for everyone before the first fit.
func (m *WorkerModel) Channel(worker string) (sens, spec, raw float64) {
	if c, ok := m.channels[worker]; ok {
		return c.sens, c.spec, c.raw
	}
	return m.pc, m.pc, m.pc
}

// WorkerTally is one worker's answers counted against a gold labeling.
type WorkerTally struct {
	Worker  string
	Support int // answers given
	Correct int // answers that agree with gold
	Trues   int // "true" answers
}

// Tally counts each worker's answers, those that agree with gold(fact), and
// its "true" answers, sorted by worker ID.
func Tally(answers []Answer, gold func(fact int) bool) []WorkerTally {
	idx := make(map[string]int)
	var out []WorkerTally
	for _, a := range answers {
		i, ok := idx[a.Worker]
		if !ok {
			i = len(out)
			idx[a.Worker] = i
			out = append(out, WorkerTally{Worker: a.Worker})
		}
		t := &out[i]
		t.Support++
		if a.Value {
			t.Trues++
		}
		if a.Value == gold(a.Fact) {
			t.Correct++
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}
