// Package quality scores fused fact probabilities against labels. The
// engine's output is a probability per fact, and downstream consumers (the
// paper's "confidence of any query answers") rely on those probabilities
// being honest. A reliability diagram bins facts by predicted probability
// and compares each bin's mean prediction with its empirical label rate;
// the expected calibration error (ECE) summarizes the gap. The offline
// evaluation scores against gold labels, the daemon against the pseudo-gold
// of its own posterior; both compute it here, and both turn probabilities
// into true/false labels with Labels.
package quality

import (
	"errors"
	"fmt"
	"math"
)

// Bin is one reliability-diagram bin. The JSON names are the daemon's
// wire format (GET /v1/sessions/{id}/calibration).
type Bin struct {
	// Lo and Hi bound the bin's predicted-probability range [Lo, Hi).
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Count is the number of facts in the bin, MeanPredicted their average
	// predicted P(true) and EmpiricalRate the fraction labelled true.
	Count         int     `json:"count"`
	MeanPredicted float64 `json:"mean_predicted"`
	EmpiricalRate float64 `json:"empirical_rate"`
}

// Calibration is a full reliability report.
type Calibration struct {
	Bins []Bin `json:"bins"`
	// ECE is the expected calibration error: the count-weighted mean
	// |MeanPredicted - EmpiricalRate| over bins.
	ECE float64 `json:"ece"`
	// Brier is the mean squared error of the probabilistic predictions.
	Brier float64 `json:"brier"`
	// Total is the number of predictions binned.
	Total int `json:"total"`
}

// Calibrate bins the predicted probabilities marginals[i] = P(fact i is
// true) against the labels gold[i] into nBins equal-width bins over [0, 1];
// a probability of exactly 1 lands in the last bin. nBins must be at least
// 2, and marginals and gold must be non-empty and of equal length. Sums run
// in index order, so a caller scoring several sets at once concatenates
// them in its own order and gets the same bits every time.
func Calibrate(marginals []float64, gold []bool, nBins int) (*Calibration, error) {
	if nBins < 2 {
		return nil, fmt.Errorf("quality: nBins must be >= 2, got %d", nBins)
	}
	if len(marginals) == 0 {
		return nil, errors.New("quality: no predictions to calibrate")
	}
	if len(marginals) != len(gold) {
		return nil, fmt.Errorf("quality: %d predictions but %d labels", len(marginals), len(gold))
	}
	sumPred := make([]float64, nBins)
	sumTrue := make([]float64, nBins)
	count := make([]int, nBins)
	var brier float64
	for i, p := range marginals {
		b := int(p * float64(nBins))
		if b >= nBins {
			b = nBins - 1
		}
		sumPred[b] += p
		if gold[i] {
			sumTrue[b]++
			brier += (1 - p) * (1 - p)
		} else {
			brier += p * p
		}
		count[b]++
	}
	total := len(marginals)
	cal := &Calibration{Bins: make([]Bin, nBins), Total: total}
	for b := range cal.Bins {
		bin := Bin{
			Lo: float64(b) / float64(nBins),
			Hi: float64(b+1) / float64(nBins),
		}
		if count[b] > 0 {
			bin.Count = count[b]
			bin.MeanPredicted = sumPred[b] / float64(count[b])
			bin.EmpiricalRate = sumTrue[b] / float64(count[b])
			cal.ECE += float64(count[b]) / float64(total) *
				math.Abs(bin.MeanPredicted-bin.EmpiricalRate)
		}
		cal.Bins[b] = bin
	}
	cal.Brier = brier / float64(total)
	return cal, nil
}

// Labels returns each fact's MAP label: true when its probability
// marginals[i] of being true is at least 0.5. It is the engine's judgment,
// the offline evaluation's prediction and the daemon's pseudo-gold.
func Labels(marginals []float64) []bool {
	labels := make([]bool, len(marginals))
	for i, p := range marginals {
		labels[i] = p >= 0.5
	}
	return labels
}
