package quality

import (
	"slices"
	"testing"
)

// TestCalibrateProbabilityOneLandsInLastBin: p == 1 would index one past
// the last bin; it is counted in the last one.
func TestCalibrateProbabilityOneLandsInLastBin(t *testing.T) {
	cal, err := Calibrate([]float64{1, 0.95, 0}, []bool{true, false, false}, 10)
	if err != nil {
		t.Fatal(err)
	}
	last := cal.Bins[9]
	if last.Count != 2 || last.MeanPredicted != 0.975 || last.EmpiricalRate != 0.5 {
		t.Errorf("last bin = %+v, want count 2, mean 0.975, rate 0.5", last)
	}
	if cal.Bins[0].Count != 1 || cal.Total != 3 {
		t.Errorf("first bin = %+v, total %d", cal.Bins[0], cal.Total)
	}
}

func TestCalibrateRejectsBadInput(t *testing.T) {
	for _, nBins := range []int{-1, 0, 1} {
		if _, err := Calibrate([]float64{0.5}, []bool{true}, nBins); err == nil {
			t.Errorf("nBins = %d accepted", nBins)
		}
	}
	if _, err := Calibrate(nil, nil, 10); err == nil {
		t.Error("no predictions accepted")
	}
	if _, err := Calibrate([]float64{0.5, 0.5}, []bool{true}, 10); err == nil {
		t.Error("more predictions than labels accepted")
	}
}

// TestCalibrateEmptyBinsReportZeros: a bin no prediction falls in keeps its
// range and reports zero count, mean and rate, and adds nothing to ECE.
func TestCalibrateEmptyBinsReportZeros(t *testing.T) {
	marginals := []float64{0.25, 0.25, 0.75, 0.75}
	gold := []bool{false, true, true, true}
	cal, err := Calibrate(marginals, gold, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []Bin{
		{Lo: 0, Hi: 0.25},
		{Lo: 0.25, Hi: 0.5, Count: 2, MeanPredicted: 0.25, EmpiricalRate: 0.5},
		{Lo: 0.5, Hi: 0.75},
		{Lo: 0.75, Hi: 1, Count: 2, MeanPredicted: 0.75, EmpiricalRate: 1},
	}
	if len(cal.Bins) != len(want) {
		t.Fatalf("%d bins, want %d", len(cal.Bins), len(want))
	}
	for i := range want {
		if cal.Bins[i] != want[i] {
			t.Errorf("bin %d = %+v, want %+v", i, cal.Bins[i], want[i])
		}
	}
	// ECE = ½·|0.25−0.5| + ½·|0.75−1|; Brier = (0.0625+0.5625+0.0625+0.0625)/4.
	if cal.ECE != 0.25 || cal.Brier != 0.1875 || cal.Total != 4 {
		t.Errorf("ECE = %v, Brier = %v, total = %d; want 0.25, 0.1875, 4", cal.ECE, cal.Brier, cal.Total)
	}
}

// TestLabels: a probability of exactly 0.5 labels true, anything below
// false.
func TestLabels(t *testing.T) {
	got := Labels([]float64{0, 0.49, 0.5, 0.51, 1})
	if want := []bool{false, false, true, true, true}; !slices.Equal(got, want) {
		t.Fatalf("Labels = %v, want %v", got, want)
	}
	if got := Labels(nil); len(got) != 0 {
		t.Fatalf("Labels(nil) = %v, want empty", got)
	}
}
