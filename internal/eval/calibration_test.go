package eval

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"crowdfusion/internal/core"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/quality"
)

func TestCalibrationReportValidation(t *testing.T) {
	if _, err := CalibrationReport(nil, nil, 10); err != ErrInstanceCount {
		t.Errorf("empty err = %v", err)
	}
	ins := testInstances(t, 3, 8, 50)
	joints := make([]*dist.Joint, len(ins))
	for i, in := range ins {
		joints[i] = in.Joint
	}
	if _, err := CalibrationReport(ins, joints[:1], 10); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := CalibrationReport(ins, joints, 1); err == nil {
		t.Error("nBins=1 accepted")
	}
}

func TestCalibrationReportCounts(t *testing.T) {
	ins := testInstances(t, 6, 10, 51)
	joints := make([]*dist.Joint, len(ins))
	want := 0
	for i, in := range ins {
		joints[i] = in.Joint
		want += in.N()
	}
	cal, err := CalibrationReport(ins, joints, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Total != want {
		t.Errorf("total = %d, want %d", cal.Total, want)
	}
	sum := 0
	for _, b := range cal.Bins {
		sum += b.Count
		if b.Count > 0 {
			if b.MeanPredicted < b.Lo-1e-9 || b.MeanPredicted > b.Hi+1e-9 {
				t.Errorf("bin [%.2f,%.2f): mean predicted %.3f outside bin",
					b.Lo, b.Hi, b.MeanPredicted)
			}
			if b.EmpiricalRate < 0 || b.EmpiricalRate > 1 {
				t.Errorf("empirical rate %v", b.EmpiricalRate)
			}
		}
	}
	if sum != want {
		t.Errorf("bin counts sum to %d, want %d", sum, want)
	}
	if cal.ECE < 0 || cal.ECE > 1 {
		t.Errorf("ECE = %v", cal.ECE)
	}
	if cal.Brier < 0 || cal.Brier > 1 {
		t.Errorf("Brier = %v", cal.Brier)
	}
}

// TestCalibrationReportMatchesQuality: scoring several instances at once
// equals quality.Calibrate over their concatenated marginals and gold
// labels, bit for bit.
func TestCalibrationReportMatchesQuality(t *testing.T) {
	ins := testInstances(t, 5, 9, 55)
	joints := make([]*dist.Joint, len(ins))
	var marginals []float64
	var gold []bool
	for i, in := range ins {
		joints[i] = in.Joint
		marginals = append(marginals, in.Joint.Marginals()...)
		gold = append(gold, in.Gold...)
	}
	got, err := CalibrationReport(ins, joints, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := quality.Calibrate(marginals, gold, 10)
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, a, b float64) {
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s = %v, want %v", what, a, b)
		}
	}
	if got.Total != want.Total || len(got.Bins) != len(want.Bins) {
		t.Fatalf("total %d over %d bins, want %d over %d", got.Total, len(got.Bins), want.Total, len(want.Bins))
	}
	for i, b := range got.Bins {
		w := want.Bins[i]
		if b.Count != w.Count {
			t.Errorf("bin %d count = %d, want %d", i, b.Count, w.Count)
		}
		same("Lo", b.Lo, w.Lo)
		same("Hi", b.Hi, w.Hi)
		same("MeanPredicted", b.MeanPredicted, w.MeanPredicted)
		same("EmpiricalRate", b.EmpiricalRate, w.EmpiricalRate)
	}
	same("ECE", got.ECE, want.ECE)
	same("Brier", got.Brier, want.Brier)
}

// TestCalibrationImprovesWithRefinement: crowd refinement should reduce
// both ECE and Brier score — the posterior probabilities become sharper
// and stay honest.
func TestCalibrationImprovesWithRefinement(t *testing.T) {
	ins := testInstances(t, 12, 14, 52)
	priorJoints := make([]*dist.Joint, len(ins))
	for i, in := range ins {
		priorJoints[i] = in.Joint
	}
	before, err := CalibrationReport(ins, priorJoints, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSweep(SweepConfig{
		Instances: ins, Selector: core.SelApproxPrune,
		K: 2, Budget: 20, Pc: 0.9, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	after, err := CalibrationReport(ins, res.Joints, 10)
	if err != nil {
		t.Fatal(err)
	}
	if after.Brier >= before.Brier {
		t.Errorf("Brier did not improve: %.4f -> %.4f", before.Brier, after.Brier)
	}
}

// TestCalibrationPerfectPredictions: probabilities of exactly 0/1 matching
// gold give zero ECE and Brier.
func TestCalibrationPerfectPredictions(t *testing.T) {
	ins := testInstances(t, 4, 8, 53)
	joints := make([]*dist.Joint, len(ins))
	for i, in := range ins {
		// A point-mass joint on the truth world.
		j, err := dist.New(in.N(), []dist.World{in.Truth}, []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		joints[i] = j
	}
	cal, err := CalibrationReport(ins, joints, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cal.ECE) > 1e-9 || math.Abs(cal.Brier) > 1e-9 {
		t.Errorf("perfect predictions: ECE=%v Brier=%v", cal.ECE, cal.Brier)
	}
}

func TestRenderCalibration(t *testing.T) {
	ins := testInstances(t, 3, 8, 54)
	joints := make([]*dist.Joint, len(ins))
	for i, in := range ins {
		joints[i] = in.Joint
	}
	cal, err := CalibrationReport(ins, joints, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderCalibration(&buf, cal); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ECE") || !strings.Contains(out, "empirical rate") {
		t.Errorf("render missing fields:\n%s", out)
	}
}
