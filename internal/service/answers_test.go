package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"crowdfusion/internal/store"
)

// at returns a pointer to version v, for AnswersRequest.Version.
func at(v int) *int { return &v }

// TestAnswerOutcomesOverHTTP pins the answers endpoint's outcome — status,
// envelope code, merged, partial and the budget spent afterwards — for
// every request shape the answer path distinguishes, each against the
// session state that makes the shape interesting: a fresh session, an
// outstanding selection, an open ledger, and a committed round.
func TestAnswerOutcomesOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// setup drives a fresh em session over HTTP into state and returns its
	// answers URL, its session URL, and the batch selected at version 0
	// (nil in state "created"). The ledger holds the batch's first judgment;
	// the committed round is the whole batch, attributed to w1 and w2.
	setup := func(t *testing.T, state string) (answersURL, sessionURL string, batch []int) {
		t.Helper()
		var info SessionInfo
		if s := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", workerCreateReq(4, WorkerModelEM), &info); s != http.StatusCreated {
			t.Fatalf("create status %d", s)
		}
		sessionURL = ts.URL + "/v1/sessions/" + info.ID
		answersURL = sessionURL + "/answers"
		if state == "created" {
			return answersURL, sessionURL, nil
		}
		var sel SelectResponse
		if s := doJSON(t, http.MethodPost, sessionURL+"/select", nil, &sel); s != http.StatusOK || len(sel.Tasks) != 2 {
			t.Fatalf("select status %d, batch %v", s, sel.Tasks)
		}
		batch = sel.Tasks
		var prep *AnswersRequest
		switch state {
		case "ledger":
			prep = &AnswersRequest{Tasks: batch[:1], Answers: answersFor(batch[:1]), Version: at(0), Partial: true}
		case "committed":
			prep = &AnswersRequest{Judgments: judge(batch, answersFor(batch), []string{"w1", "w2"}), Version: at(0)}
		}
		if prep != nil {
			if s := doJSON(t, http.MethodPost, answersURL, prep, nil); s != http.StatusOK {
				t.Fatalf("%s: setup status %d", state, s)
			}
		}
		return answersURL, sessionURL, batch
	}

	for _, row := range []struct {
		name    string
		state   string
		req     func(batch []int) *AnswersRequest
		status  int
		code    string
		merged  bool
		partial bool
		spent   int
	}{
		{
			name: "legacy duplicate task in a full set", state: "created",
			req: func([]int) *AnswersRequest {
				return &AnswersRequest{Tasks: []int{0, 0}, Answers: []bool{true, true}, Version: at(0)}
			},
			status: http.StatusBadRequest,
		},
		{
			name: "legacy contradicting duplicate in a full set", state: "created",
			req: func([]int) *AnswersRequest {
				return &AnswersRequest{Tasks: []int{0, 0}, Answers: []bool{true, false}, Version: at(0)}
			},
			status: http.StatusBadRequest,
		},
		{
			name: "legacy matching duplicate in a partial", state: "ledger",
			req: func(b []int) *AnswersRequest {
				a := answersFor(b[:1])[0]
				return &AnswersRequest{Tasks: []int{b[0], b[0]}, Answers: []bool{a, a}, Version: at(0), Partial: true}
			},
			status: http.StatusOK, partial: true,
		},
		{
			name: "legacy contradicting duplicate in a partial", state: "selected",
			req: func(b []int) *AnswersRequest {
				return &AnswersRequest{Tasks: []int{b[0], b[0]}, Answers: []bool{true, false}, Version: at(0), Partial: true}
			},
			status: http.StatusConflict, code: CodeAnswerConflict,
		},
		{
			name: "judgments duplicate", state: "created",
			req: func([]int) *AnswersRequest {
				return &AnswersRequest{Version: at(0), Judgments: []Judgment{
					{Task: 0, Answer: true, Worker: "w1"}, {Task: 0, Answer: false, Worker: "w2"}}}
			},
			status: http.StatusBadRequest, code: CodeDuplicateTask,
		},
		{
			name: "partial with no selection", state: "created",
			req: func([]int) *AnswersRequest {
				return &AnswersRequest{Tasks: []int{0}, Answers: []bool{true}, Version: at(0), Partial: true}
			},
			status: http.StatusConflict, code: CodeNoPendingBatch,
		},
		{
			name: "partial at a future version", state: "selected",
			req: func(b []int) *AnswersRequest {
				return &AnswersRequest{Tasks: b[:1], Answers: answersFor(b[:1]), Version: at(1), Partial: true}
			},
			status: http.StatusConflict, code: CodeVersionConflict,
		},
		{
			name: "partial outside the pending batch", state: "ledger",
			req: func(b []int) *AnswersRequest {
				outside := slices.IndexFunc([]int{0, 1, 2, 3}, func(t int) bool { return !slices.Contains(b, t) })
				return &AnswersRequest{Tasks: []int{outside}, Answers: []bool{true}, Version: at(0), Partial: true}
			},
			status: http.StatusBadRequest, code: CodeNotInBatch,
		},
		{
			name: "partial contradicting the ledger", state: "ledger",
			req: func(b []int) *AnswersRequest {
				return &AnswersRequest{Tasks: b[:1], Answers: []bool{!answersFor(b[:1])[0]}, Version: at(0), Partial: true}
			},
			status: http.StatusConflict, code: CodeAnswerConflict,
		},
		{
			name: "partial completing the ledger", state: "ledger",
			req: func(b []int) *AnswersRequest {
				return &AnswersRequest{Tasks: b[1:], Answers: answersFor(b[1:]), Version: at(0), Partial: true}
			},
			status: http.StatusOK, merged: true, partial: true, spent: 2,
		},
		{
			name: "full set at the current version", state: "selected",
			req: func(b []int) *AnswersRequest {
				return &AnswersRequest{Tasks: b, Answers: answersFor(b), Version: at(0)}
			},
			status: http.StatusOK, merged: true, spent: 2,
		},
		{
			name: "partial prefix at a committed version", state: "committed",
			req: func(b []int) *AnswersRequest {
				return &AnswersRequest{Tasks: b[:1], Answers: answersFor(b[:1]), Version: at(0), Partial: true}
			},
			status: http.StatusOK, partial: true, spent: 2,
		},
		{
			name: "versioned retry of a committed set", state: "committed",
			req: func(b []int) *AnswersRequest {
				return &AnswersRequest{Judgments: judge(b, answersFor(b), []string{"w1", "w2"}), Version: at(0)}
			},
			status: http.StatusOK, spent: 2,
		},
		{
			name: "versionless legacy retry of a committed set", state: "committed",
			req: func(b []int) *AnswersRequest {
				return &AnswersRequest{Tasks: b, Answers: answersFor(b)}
			},
			status: http.StatusOK, spent: 2,
		},
		{
			name: "full set at a stale version with different answers", state: "committed",
			req: func(b []int) *AnswersRequest {
				answers := answersFor(b)
				answers[0] = !answers[0]
				return &AnswersRequest{Tasks: b, Answers: answers, Version: at(0)}
			},
			status: http.StatusConflict, code: CodeVersionConflict, spent: 2,
		},
		{
			name: "re-attributed retry", state: "committed",
			req: func(b []int) *AnswersRequest {
				return &AnswersRequest{Judgments: judge(b, answersFor(b), []string{"w1", "w9"}), Version: at(0)}
			},
			status: http.StatusConflict, code: CodeAttributionConflict, spent: 2,
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			answersURL, sessionURL, batch := setup(t, row.state)
			var body struct {
				AnswersResponse
				ErrorResponse
			}
			status := doJSON(t, http.MethodPost, answersURL, row.req(batch), &body)
			var info SessionInfo
			if s := doJSON(t, http.MethodGet, sessionURL, nil, &info); s != http.StatusOK {
				t.Fatalf("get status %d", s)
			}
			if status != row.status || body.Code != row.code || body.Merged != row.merged ||
				body.Partial != row.partial || info.Spent != row.spent {
				t.Fatalf("got status %d code %q merged %v partial %v spent %d (%s)\nwant status %d code %q merged %v partial %v spent %d",
					status, body.Code, body.Merged, body.Partial, info.Spent, body.ErrorResponse.Error,
					row.status, row.code, row.merged, row.partial, row.spent)
			}
		})
	}
}

// answersFixture returns the record of a 4-fact session under model with
// one committed round — tasks 0 and 1 answered true and false, attributed
// to w1 and w2 — so a fuzzed request can retry it.
func answersFixture(f *testing.F, model string, now time.Time) *store.Record {
	f.Helper()
	m := newManager(Config{Clock: func() time.Time { return now }})
	defer m.Close()
	s, err := m.Create(context.Background(), &CreateSessionRequest{
		Marginals: []float64{0.5, 0.6, 0.4, 0.7}, Pc: 0.8, K: 2, Budget: 8, WorkerModel: model,
	})
	if err != nil {
		f.Fatal(err)
	}
	first := &AnswersRequest{Version: at(0), Judgments: judge([]int{0, 1}, []bool{true, false}, []string{"w1", "w2"})}
	if resp, err := s.Merge(context.Background(), now, first); err != nil || !resp.Merged {
		f.Fatalf("fixture commit: %+v, %v", resp, err)
	}
	return s.record()
}

// FuzzAnswersRequest: any body the answers handler decodes and accepts,
// submitted twice (the second time as its own retry) to a 4-fact fixed and
// em session with a committed round and a selection outstanding, never
// panics, never spends more than the committed batches — nor more than the
// budget — and leaves a session whose record restores to the identical
// state.
func FuzzAnswersRequest(f *testing.F) {
	now := time.Unix(1000, 0)
	fixtures := []*store.Record{answersFixture(f, WorkerModelFixed, now), answersFixture(f, WorkerModelEM, now)}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req AnswersRequest
		if err := decodeJSON(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), &req); err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return
		}
		for _, rec := range fixtures {
			s, err := restoreSession(rec.Clone(), DefaultAnonWorker, now)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Select(context.Background(), now, 0); err != nil {
				t.Fatal(err)
			}
			for range 2 {
				if _, err := s.Merge(context.Background(), now, &req); err != nil {
					t.Logf("%s: %v", rec.WorkerModel, err)
				}
				info := s.Info(context.Background(), now, true)
				committed := 0
				for _, r := range info.Rounds {
					committed += len(r.Tasks)
				}
				if info.Spent != committed || info.Spent > info.Budget {
					t.Fatalf("spent %d, committed batches %d, budget %d", info.Spent, committed, info.Budget)
				}
			}
			restored, err := restoreSession(s.record(), DefaultAnonWorker, now)
			if err != nil {
				t.Fatalf("record does not restore: %v", err)
			}
			if got, want := restoreFingerprint(t, restored, now), restoreFingerprint(t, s, now); got != want {
				t.Fatalf("restored session differs from live:\n got %s\nwant %s", got, want)
			}
		}
	})
}
