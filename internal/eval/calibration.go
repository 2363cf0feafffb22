package eval

import (
	"fmt"
	"io"
	"text/tabwriter"

	"crowdfusion/internal/dist"
	"crowdfusion/internal/quality"
	"crowdfusion/internal/worlds"
)

// CalibrationReport scores the marginal probabilities of the given joints
// (parallel to instances) against the instances' gold labels: the
// instances are concatenated in order and binned into nBins reliability
// bins by quality.Calibrate. nBins must be at least 2.
func CalibrationReport(instances []*worlds.Instance, joints []*dist.Joint, nBins int) (*quality.Calibration, error) {
	if len(instances) == 0 || len(instances) != len(joints) {
		return nil, ErrInstanceCount
	}
	var marginals []float64
	var gold []bool
	for idx, in := range instances {
		if joints[idx].N() != in.N() {
			return nil, fmt.Errorf("eval: joint %d has %d facts, instance has %d",
				idx, joints[idx].N(), in.N())
		}
		marginals = append(marginals, joints[idx].Marginals()...)
		gold = append(gold, in.Gold...)
	}
	return quality.Calibrate(marginals, gold, nBins)
}

// RenderCalibration writes the reliability table.
func RenderCalibration(w io.Writer, c *quality.Calibration) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bin\tcount\tmean predicted\tempirical rate")
	for _, b := range c.Bins {
		fmt.Fprintf(tw, "[%.2f, %.2f)\t%d\t%.3f\t%.3f\n",
			b.Lo, b.Hi, b.Count, b.MeanPredicted, b.EmpiricalRate)
	}
	fmt.Fprintf(tw, "ECE\t%.4f\tBrier\t%.4f\n", c.ECE, c.Brier)
	return tw.Flush()
}
