package eval

import (
	"crowdfusion/internal/crowd"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/quality"
	"crowdfusion/internal/worlds"
)

// ErrorBreakdown tallies residual wrong judgments by statement difficulty
// class, reproducing the Section V-D error analysis: wrong-order,
// additional-info and misspelled statements dominate what the crowd cannot
// fix.
type ErrorBreakdown struct {
	// Wrong counts misjudged statements per class; TotalByClass counts
	// all statements per class.
	Wrong        map[crowd.ErrorClass]int
	TotalByClass map[crowd.ErrorClass]int
}

// Rate returns the error rate for a class (0 when no such statements).
func (b ErrorBreakdown) Rate(c crowd.ErrorClass) float64 {
	total := b.TotalByClass[c]
	if total == 0 {
		return 0
	}
	return float64(b.Wrong[c]) / float64(total)
}

// AnalyzeErrors compares final judgments per instance against gold and
// attributes each residual error to its statement class. finals[i] must be
// the refined joint of instances[i].
func AnalyzeErrors(instances []*worlds.Instance, finals []*dist.Joint) (ErrorBreakdown, error) {
	b := ErrorBreakdown{
		Wrong:        make(map[crowd.ErrorClass]int),
		TotalByClass: make(map[crowd.ErrorClass]int),
	}
	if len(instances) != len(finals) {
		return b, ErrInstanceCount
	}
	if len(instances) == 0 {
		return b, ErrInstanceCount
	}
	for idx, in := range instances {
		labels := quality.Labels(finals[idx].Marginals())
		for i, s := range in.Statements {
			b.TotalByClass[s.Class]++
			if labels[i] != s.Gold {
				b.Wrong[s.Class]++
			}
		}
	}
	return b, nil
}
