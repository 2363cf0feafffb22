package main

import (
	"slices"
	"strings"
	"time"

	"crowdfusion/internal/trace"
)

// spanAgg is one span name's aggregate over a traced window: wall durations
// and self times, in milliseconds.
type spanAgg struct {
	dur, self []float64
}

// spanSet aggregates recorded spans by normalized name.
type spanSet map[string]*spanAgg

// normalizeSpanName folds the session ID out of request span names, so
// "POST /v1/sessions/3f…/select" and the client's "client POST
// /v1/sessions/3f…/select?…" aggregate per route: the path segment after
// /v1/sessions/ becomes {id} and any query string is dropped.
func normalizeSpanName(name string) string {
	name, _, _ = strings.Cut(name, "?")
	const prefix = "/v1/sessions/"
	i := strings.Index(name, prefix)
	if i < 0 {
		return name
	}
	rest := name[i+len(prefix):]
	if rest == "" {
		return name
	}
	tail := ""
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		tail = rest[j:]
	}
	return name[:i+len(prefix)] + "{id}" + tail
}

// selfTime is the part of a span's interval that none of its children
// cover: its duration minus the union of the children's intervals, clipped
// to the span. Overlapping children (concurrent work under one parent) are
// counted once.
func selfTime(parent trace.SpanData, children []trace.SpanData) time.Duration {
	start, end := parent.Start, parent.Start.Add(parent.Duration)
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.Start.Add(c.Duration)
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return x.a.Compare(y.a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	return parent.Duration - covered
}

// add aggregates every span of the traces that started at or after since
// (spans recorded during warm-up are left out).
func (s spanSet) add(traces []trace.TraceData, since time.Time) {
	for _, td := range traces {
		children := make(map[string][]trace.SpanData, len(td.Spans))
		for _, sp := range td.Spans {
			if sp.ParentID != "" {
				children[sp.ParentID] = append(children[sp.ParentID], sp)
			}
		}
		for _, sp := range td.Spans {
			if sp.Start.Before(since) {
				continue
			}
			name := normalizeSpanName(sp.Name)
			a := s[name]
			if a == nil {
				a = &spanAgg{}
				s[name] = a
			}
			a.dur = append(a.dur, float64(sp.Duration)/float64(time.Millisecond))
			a.self = append(a.self, float64(selfTime(sp, children[sp.SpanID]))/float64(time.Millisecond))
		}
	}
}

// droppedSpans counts spans a recorder discarded: per-trace overflow, plus
// every trace when the recent ring filled up (the oldest may have been
// evicted). Any drop makes the per-layer breakdown incomplete.
func droppedSpans(snap trace.Snapshot, limit int) int {
	n := 0
	for _, td := range snap.Recent {
		n += td.DroppedSpans
	}
	if len(snap.Recent) >= limit {
		n += len(snap.Recent)
	}
	return n
}
