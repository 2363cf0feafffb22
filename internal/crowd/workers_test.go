package crowd

import (
	"math"
	"reflect"
	"testing"
)

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// uneven returns a planted log on which the workers answer different
// numbers of facts: w00 every fact, w01 the first 30, w02 the first 10.
func uneven(t *testing.T) []Answer {
	log, _ := plantAnswers(t, []float64{0.9, 0.75, 0.6}, 40, 5)
	var out []Answer
	for _, a := range log {
		if a.Worker == "w00" || (a.Worker == "w01" && a.Fact < 30) || (a.Worker == "w02" && a.Fact < 10) {
			out = append(out, a)
		}
	}
	return out
}

func TestWorkerModelUnfittedAtPc(t *testing.T) {
	const pc = 0.8
	for _, name := range []string{WorkerModelFixed, WorkerModelEM, WorkerModelDawidSkene} {
		m := NewWorkerModel(name, pc, 1)
		if sens, spec, raw := m.Channel("w00"); !sameBits(sens, pc) || !sameBits(spec, pc) || !sameBits(raw, pc) {
			t.Errorf("%s before any fit: channel (%v, %v, %v), want pc %v", name, sens, spec, raw, pc)
		}
	}
	m := NewWorkerModel(WorkerModelEM, pc, 1)
	if !m.Fit(uneven(t)) {
		t.Fatal("em fit failed")
	}
	if sens, spec, raw := m.Channel("nobody"); !sameBits(sens, pc) || !sameBits(spec, pc) || !sameBits(raw, pc) {
		t.Errorf("worker outside the fit: channel (%v, %v, %v), want pc %v", sens, spec, raw, pc)
	}
	if sens, _, _ := m.Channel("w00"); sameBits(sens, pc) {
		t.Error("a fitted worker still sits at pc")
	}
}

func TestWorkerModelFitRefusals(t *testing.T) {
	const pc = 0.7
	log := uneven(t)
	atPc := func(m *WorkerModel) bool {
		for _, w := range []string{"w00", "w01", "w02"} {
			if sens, spec, raw := m.Channel(w); !sameBits(sens, pc) || !sameBits(spec, pc) || !sameBits(raw, pc) {
				return false
			}
		}
		return true
	}
	fixed := NewWorkerModel(WorkerModelFixed, pc, 1)
	if fixed.Fit(log) || !atPc(&fixed) {
		t.Error("a fixed model fitted")
	}
	for _, name := range []string{WorkerModelEM, WorkerModelDawidSkene} {
		m := NewWorkerModel(name, pc, 1)
		if m.Fit(nil) || !atPc(&m) {
			t.Errorf("%s fitted an empty log", name)
		}
		if !m.Fit(log) {
			t.Fatalf("%s fit failed", name)
		}
		before, _, _ := m.Channel("w00")
		if m.Fit(nil) {
			t.Errorf("%s fitted an empty log after a fit", name)
		}
		if after, _, _ := m.Channel("w00"); !sameBits(before, after) {
			t.Errorf("%s: a refused fit moved w00 from %v to %v", name, before, after)
		}
	}
}

// TestWorkerModelDawidSkeneShrink: each fitted channel is the estimator's
// raw sensitivity and specificity, each shrunk separately toward pc by
// (4·pc + n·x)/(4 + n), n the worker's answer count; raw is their mean.
func TestWorkerModelDawidSkeneShrink(t *testing.T) {
	const pc = 0.75
	log := uneven(t)
	est, err := EstimateDawidSkene(log, EMOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m := NewWorkerModel(WorkerModelDawidSkene, pc, 9)
	if !m.Fit(log) {
		t.Fatal("dawid-skene fit failed")
	}
	for w, n := range map[string]float64{"w00": 40, "w01": 30, "w02": 10} {
		sn, sp := est.Sensitivity[w], est.Specificity[w]
		sens, spec, raw := m.Channel(w)
		if want := (4*pc + n*sn) / (4 + n); !sameBits(sens, want) {
			t.Errorf("%s: sens %v, want %v", w, sens, want)
		}
		if want := (4*pc + n*sp) / (4 + n); !sameBits(spec, want) {
			t.Errorf("%s: spec %v, want %v", w, spec, want)
		}
		if want := (sn + sp) / 2; !sameBits(raw, want) {
			t.Errorf("%s: raw %v, want %v", w, raw, want)
		}
		if sn == sp {
			t.Errorf("%s: the planted log gives equal sensitivity and specificity %v", w, sn)
		}
	}
}

func TestTally(t *testing.T) {
	gold := []bool{true, false, true}
	answers := []Answer{
		{Fact: 0, Value: true, Worker: "zed"},
		{Fact: 1, Value: true, Worker: "amy"},
		{Fact: 2, Value: true, Worker: "amy"},
		{Fact: 1, Value: false, Worker: "zed"},
		{Fact: 0, Value: false, Worker: "bob"},
	}
	got := Tally(answers, func(f int) bool { return gold[f] })
	want := []WorkerTally{
		{Worker: "amy", Support: 2, Correct: 1, Trues: 2},
		{Worker: "bob", Support: 1, Correct: 0, Trues: 0},
		{Worker: "zed", Support: 2, Correct: 2, Trues: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tally = %+v, want %+v", got, want)
	}
}
