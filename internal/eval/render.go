package eval

import (
	"encoding/csv"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"text/tabwriter"

	"crowdfusion/internal/crowd"
)

// RenderTimings writes the Table V grid as an aligned text table: one row
// per k, one column per selector, times in seconds.
func RenderTimings(w io.Writer, r *TimingResult) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "k")
	for _, s := range r.Config.Selectors {
		fmt.Fprintf(tw, "\t%s", s)
	}
	fmt.Fprintln(tw)
	for _, k := range r.Config.Ks {
		fmt.Fprintf(tw, "%d", k)
		for _, s := range r.Config.Selectors {
			cell, ok := r.Cell(k, s)
			switch {
			case !ok || cell.Skipped:
				fmt.Fprint(tw, "\t-")
			default:
				fmt.Fprintf(tw, "\t%.6f", cell.Seconds)
			}
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// WriteTimingsCSV writes the grid as CSV with the same layout.
func WriteTimingsCSV(w io.Writer, r *TimingResult) error {
	cw := csv.NewWriter(w)
	header := []string{"k"}
	for _, s := range r.Config.Selectors {
		header = append(header, string(s))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, k := range r.Config.Ks {
		row := []string{strconv.Itoa(k)}
		for _, s := range r.Config.Selectors {
			cell, ok := r.Cell(k, s)
			if !ok || cell.Skipped {
				row = append(row, "")
			} else {
				row = append(row, strconv.FormatFloat(cell.Seconds, 'f', 6, 64))
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTraceCSV writes one or more labelled quality curves as long-form
// CSV: label, round, cost, utility, f1.
func WriteTraceCSV(w io.Writer, curves map[string][]TracePoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "round", "cost", "utility", "f1"}); err != nil {
		return err
	}
	for _, l := range slices.Sorted(maps.Keys(curves)) {
		for _, p := range curves[l] {
			err := cw.Write([]string{
				l,
				strconv.Itoa(p.Round),
				strconv.Itoa(p.Cost),
				strconv.FormatFloat(p.Utility, 'f', 4, 64),
				strconv.FormatFloat(p.F1, 'f', 4, 64),
			})
			if err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// RenderErrorBreakdown writes the Section V-D residual-error table.
func RenderErrorBreakdown(w io.Writer, b ErrorBreakdown) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "class\twrong\ttotal\terror rate")
	for _, c := range crowd.ErrorClasses {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\n", c, b.Wrong[c], b.TotalByClass[c], b.Rate(c))
	}
	return tw.Flush()
}
