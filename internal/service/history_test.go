package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// requireSameJSON fails t unless got and want encode to the same bytes:
// what a client reads is the encoding, so that is what must match.
func requireSameJSON(t *testing.T, what string, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s diverged:\n got %s\nwant %s", what, g, w)
	}
}

// TestAdoptedHistoryMatchesLive: adopting a session replays only the state
// its posterior needs and defers the round history, and the history the
// adopted session rebuilds on first read is the live one byte for byte —
// GET ?rounds=true and the retry response of every committed version — on
// fixed, em and dawid-skene sessions whose journals end mid-ledger, and
// after merges on the adopted session, before and after the rebuild.
func TestAdoptedHistoryMatchesLive(t *testing.T) {
	for _, model := range []string{WorkerModelFixed, WorkerModelEM, WorkerModelDawidSkene} {
		t.Run(model, func(t *testing.T) { runAdoptedHistory(t, model) })
	}
}

func runAdoptedHistory(t *testing.T, model string) {
	ctx, now := context.Background(), time.Unix(1000, 0)
	m := newManager(Config{Clock: func() time.Time { return now }})
	defer m.Close()
	live, err := m.Create(ctx, &CreateSessionRequest{
		Marginals:   []float64{0.5, 0.6, 0.4, 0.7, 0.3, 0.55, 0.45, 0.65},
		Pc:          0.8,
		K:           3,
		Budget:      30,
		Seed:        3,
		WorkerModel: model,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	judge := func(tasks []int) []Judgment {
		js := make([]Judgment, len(tasks))
		for i, task := range tasks {
			js[i] = Judgment{Task: task, Answer: rng.Intn(2) == 0, Worker: fmt.Sprintf("w%d", rng.Intn(3))}
		}
		return js
	}
	merge := func(s *Session, req *AnswersRequest) (*AnswersResponse, error) {
		return s.Merge(ctx, now, cloneAnswers(req))
	}
	// round selects on s and returns the answer set for the batch.
	round := func(s *Session) *AnswersRequest {
		t.Helper()
		sel, _, err := s.Select(ctx, now, 0)
		if err != nil || len(sel.Tasks) == 0 {
			t.Fatalf("select: %+v, %v", sel, err)
		}
		v := sel.Version
		return &AnswersRequest{Version: &v, Judgments: judge(sel.Tasks)}
	}

	// Six committed rounds, alternately a full answer set and a ledger
	// answered one judgment at a time, then a ledger left open.
	var committed []*AnswersRequest
	for r := 0; r < 6; r++ {
		req := round(live)
		if r%2 == 0 {
			if resp, err := merge(live, req); err != nil || !resp.Merged {
				t.Fatalf("round %d: %+v, %v", r, resp, err)
			}
		} else {
			for _, j := range req.Judgments {
				if _, err := merge(live, &AnswersRequest{Version: req.Version, Partial: true, Judgments: []Judgment{j}}); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
			}
		}
		committed = append(committed, req)
	}
	open := round(live)
	if _, err := merge(live, &AnswersRequest{Version: open.Version, Partial: true, Judgments: open.Judgments[:1]}); err != nil {
		t.Fatal(err)
	}
	rest := &AnswersRequest{Version: open.Version, Partial: true, Judgments: open.Judgments[1:]}

	rec := live.record()
	adopt := func() *Session {
		t.Helper()
		s, err := restoreSession(rec.Clone(), DefaultAnonWorker, now)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	deferred := func(s *Session, when string) {
		t.Helper()
		if !s.historyDeferred || s.rounds != nil || s.merges != nil || s.metrics.HistoryRebuilds.Load() != 0 {
			t.Fatalf("%s: history built (%d rounds, %d merges, %d rebuilds)",
				when, len(s.rounds), len(s.merges), s.metrics.HistoryRebuilds.Load())
		}
	}
	rebuilt := func(s *Session, when string) {
		t.Helper()
		if s.historyDeferred || s.metrics.HistoryRebuilds.Load() != 1 {
			t.Fatalf("%s: deferred %v after %d rebuilds, want one rebuild",
				when, s.historyDeferred, s.metrics.HistoryRebuilds.Load())
		}
	}

	a := adopt()
	deferred(a, "restore")
	requireSameJSON(t, "adopting GET", a.Info(ctx, now, false), live.Info(ctx, now, false))
	deferred(a, "GET")
	requireSameJSON(t, "GET ?rounds=true", a.Info(ctx, now, true), live.Info(ctx, now, true))
	rebuilt(a, "GET ?rounds=true")
	requireSameJSON(t, "second GET ?rounds=true", a.Info(ctx, now, true), live.Info(ctx, now, true))
	rebuilt(a, "second GET ?rounds=true")

	// Every committed version's retry, and a versionless one, each the
	// first read of a fresh adoption.
	retries := append([]*AnswersRequest(nil), committed...)
	versionless := cloneAnswers(committed[2])
	versionless.Version = nil
	retries = append(retries, versionless)
	for i, req := range retries {
		a := adopt()
		got, gotErr := merge(a, req)
		want, wantErr := merge(live, req)
		if gotErr != nil || wantErr != nil || got.Merged {
			t.Fatalf("retry %d: adopted %+v, %v; live %v", i, got, gotErr, wantErr)
		}
		requireSameJSON(t, fmt.Sprintf("retry %d", i), got, want)
		rebuilt(a, fmt.Sprintf("retry %d", i))
	}

	// Requests that replay no committed set read no history: a retried
	// prefix of a committed ledger, an attribution conflict, and versions
	// that name no round.
	prefix := &AnswersRequest{Version: committed[1].Version, Partial: true, Judgments: committed[1].Judgments[:1]}
	a = adopt()
	got, gotErr := merge(a, prefix)
	want, wantErr := merge(live, prefix)
	if gotErr != nil || wantErr != nil || !got.Partial || got.Merged {
		t.Fatalf("retried ledger prefix: adopted %+v, %v; live %v", got, gotErr, wantErr)
	}
	requireSameJSON(t, "retried ledger prefix", got, want)
	deferred(a, "a retried ledger prefix")
	reattributed := cloneAnswers(committed[0])
	reattributed.Judgments[0].Worker = "someone-else"
	before, beyond := -1, len(committed)+5
	for i, req := range []*AnswersRequest{
		reattributed,
		{Version: &before, Judgments: committed[0].Judgments},
		{Version: &beyond, Judgments: committed[0].Judgments},
	} {
		_, gotErr := merge(a, req)
		_, wantErr := merge(live, req)
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("refused request %d: adopted %v, live %v", i, gotErr, wantErr)
		}
		deferred(a, fmt.Sprintf("refused request %d", i))
	}

	// A merge on the adopted session that commits new work needs no
	// history, at the current version or without one: each completes the
	// open ledger without building it, and the rebuild that follows
	// includes it. A round after the rebuild extends the history live.
	unversioned := &AnswersRequest{Judgments: rest.Judgments}
	a = adopt()
	got, gotErr = merge(a, unversioned)
	b := adopt()
	gotB, gotErrB := merge(b, rest)
	want, wantErr = merge(live, rest)
	if gotErr != nil || gotErrB != nil || wantErr != nil || !got.Merged || !gotB.Merged {
		t.Fatalf("completing the ledger: adopted %+v, %v and %+v, %v; live %v", got, gotErr, gotB, gotErrB, wantErr)
	}
	requireSameJSON(t, "ledger-completing versionless merge", got, want)
	requireSameJSON(t, "ledger-completing merge", gotB, want)
	deferred(a, "a new versionless set")
	deferred(b, "a merge at the current version")
	requireSameJSON(t, "GET ?rounds=true after a versionless merge", a.Info(ctx, now, true), live.Info(ctx, now, true))
	rebuilt(a, "GET ?rounds=true after a versionless merge")
	a = b
	requireSameJSON(t, "GET ?rounds=true after a merge", a.Info(ctx, now, true), live.Info(ctx, now, true))
	rebuilt(a, "GET ?rounds=true after a merge")
	req := round(live)
	sel, _, err := a.Select(ctx, now, 0)
	if err != nil || !slices.EqualFunc(sel.Tasks, req.Judgments, func(task int, j Judgment) bool { return task == j.Task }) {
		t.Fatalf("select after the rebuild: %+v, %v; live %+v", sel, err, req.Judgments)
	}
	got, gotErr = merge(a, req)
	want, wantErr = merge(live, req)
	if gotErr != nil || wantErr != nil || !got.Merged {
		t.Fatalf("merge after the rebuild: adopted %+v, %v; live %v", got, gotErr, wantErr)
	}
	requireSameJSON(t, "merge after the rebuild", got, want)
	requireSameJSON(t, "GET ?rounds=true after a live round", a.Info(ctx, now, true), live.Info(ctx, now, true))
	got, gotErr = merge(a, committed[0])
	want, wantErr = merge(live, committed[0])
	if gotErr != nil || wantErr != nil {
		t.Fatalf("retry after the rebuild: %v, %v", gotErr, wantErr)
	}
	requireSameJSON(t, "retry after the rebuild", got, want)
	rebuilt(a, "a live round")
}

// TestHistoryRebuildMetric: an adopted session's first ?rounds=true read
// counts one rebuild on the manager's counter, and the counter is
// exported.
func TestHistoryRebuildMetric(t *testing.T) {
	dir := t.TempDir()
	m1 := newFileManager(t, dir, Config{})
	ctx, now := context.Background(), m1.Now()
	s1, err := m1.Create(ctx, testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	runRounds(t, s1, now, 2)

	m2 := newFileManager(t, dir, Config{})
	defer m2.Close()
	s2, err := m2.Get(ctx, s1.ID())
	if err != nil {
		t.Fatal(err)
	}
	if n := m2.metrics.HistoryRebuilds.Load(); n != 0 {
		t.Fatalf("adoption counted %d rebuilds", n)
	}
	for range 2 {
		if got := s2.Info(ctx, now, true); len(got.Rounds) != 2 {
			t.Fatalf("rounds %+v, want 2", got.Rounds)
		}
	}
	if n := m2.metrics.HistoryRebuilds.Load(); n != 1 {
		t.Fatalf("two ?rounds=true reads counted %d rebuilds, want 1", n)
	}
	var out strings.Builder
	if err := m2.metrics.WritePrometheus(&out, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\ncrowdfusion_session_history_rebuilds_total 1\n") {
		t.Fatalf("exposition lacks the rebuild counter:\n%s", out.String())
	}
}
