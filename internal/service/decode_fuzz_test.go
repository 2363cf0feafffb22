package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"crowdfusion/internal/store"
)

// selectFixtures returns the records FuzzSelectRequest selects against:
// fresh sessions (one where the fact count caps k, one where the budget
// does), a session with a committed round and a partial ledger open on
// its second batch, and one whose done latch is set.
func selectFixtures(f *testing.F, now time.Time) map[string]*store.Record {
	f.Helper()
	m := newManager(Config{Clock: func() time.Time { return now }})
	defer m.Close()
	ctx := context.Background()
	create := func(req *CreateSessionRequest) *Session {
		s, err := m.Create(ctx, req)
		if err != nil {
			f.Fatal(err)
		}
		return s
	}
	sel := func(s *Session) *SelectResponse {
		resp, _, err := s.Select(ctx, now, 0)
		if err != nil {
			f.Fatal(err)
		}
		return resp
	}
	merge := func(s *Session, req *AnswersRequest) {
		if _, err := s.Merge(ctx, now, req); err != nil {
			f.Fatal(err)
		}
	}

	fewFacts := create(&CreateSessionRequest{Marginals: []float64{0.5, 0.6, 0.4}, Pc: 0.8, K: 2, Budget: 8})
	lowBudget := create(&CreateSessionRequest{Marginals: []float64{0.5, 0.6, 0.4, 0.7}, Pc: 0.8, K: 2, Budget: 3})

	ledger := create(&CreateSessionRequest{
		Marginals: []float64{0.5, 0.6, 0.4, 0.7}, Pc: 0.8, K: 2, Budget: 6, WorkerModel: WorkerModelEM,
	})
	first := sel(ledger)
	merge(ledger, &AnswersRequest{Version: at(0), Judgments: judge(first.Tasks, []bool{true, false}, []string{"w1", "w2"})})
	second := sel(ledger)
	merge(ledger, &AnswersRequest{Version: at(1), Partial: true, Judgments: judge(second.Tasks[:1], []bool{true}, []string{"w1"})})

	done := create(&CreateSessionRequest{Marginals: []float64{1, 0, 1}, Pc: 0.8, K: 2, Budget: 6})
	if resp := sel(done); !resp.Done {
		f.Fatalf("certain prior selected %+v; want the done latch", resp)
	}

	return map[string]*store.Record{
		"few-facts":   fewFacts.record(),
		"low-budget":  lowBudget.record(),
		"ledger-open": ledger.record(),
		"done":        done.record(),
	}
}

// FuzzSelectRequest: any body the select handler decodes and accepts,
// asked of a fresh, a ledger-open and a done session, never panics and
// never asks for more tasks than k, the remaining budget or the fact
// count allow. An open ledger answers its pinned batch; a repeat at the
// same version and k is the same batch, from cache; and the session's
// record restores to the identical state afterwards.
func FuzzSelectRequest(f *testing.F) {
	now := time.Unix(1000, 0)
	fixtures := selectFixtures(f, now)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SelectRequest
		if len(body) != 0 {
			if err := decodeJSON(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), &req); err != nil {
				return
			}
		}
		if err := req.Validate(); err != nil {
			return
		}
		ctx := context.Background()
		for name, rec := range fixtures {
			s, err := restoreSession(rec.Clone(), DefaultAnonWorker, now)
			if err != nil {
				t.Fatal(err)
			}
			before := s.Info(context.Background(), now, false)
			resp, cached, err := s.Select(ctx, now, req.K)
			if err != nil {
				t.Fatalf("%s: select k=%d: %v", name, req.K, err)
			}
			if before.Pending != nil {
				if !cached || !resp.Cached || !reflect.DeepEqual(resp.Tasks, before.Pending.Tasks) {
					t.Fatalf("%s: select with a ledger open = %+v (cached=%v); want the pinned batch %v",
						name, resp, cached, before.Pending.Tasks)
				}
			} else {
				k := s.k
				if req.K > 0 {
					k = req.K
				}
				limit := min(k, before.Budget-before.Spent, before.N)
				if len(resp.Tasks) > limit {
					t.Fatalf("%s: k=%d selected %d tasks; limit %d", name, req.K, len(resp.Tasks), limit)
				}
			}

			again, cachedAgain, err := s.Select(ctx, now, req.K)
			if err != nil {
				t.Fatalf("%s: repeat select: %v", name, err)
			}
			want := *resp
			want.Cached = !resp.Done
			if !reflect.DeepEqual(*again, want) || cachedAgain != want.Cached {
				t.Fatalf("%s: repeat select = %+v (cached=%v); want %+v", name, again, cachedAgain, want)
			}

			restored, err := restoreSession(s.record(), DefaultAnonWorker, now)
			if err != nil {
				t.Fatalf("%s: record does not restore: %v", name, err)
			}
			if got, want := restoreFingerprint(t, restored, now), restoreFingerprint(t, s, now); got != want {
				t.Fatalf("%s: restored session differs from live:\n got %s\nwant %s", name, got, want)
			}
		}
	})
}

// FuzzCreateRequest: any body the create handler decodes and the manager
// accepts is a session whose stored record restores to the identical
// state.
func FuzzCreateRequest(f *testing.F) {
	now := time.Unix(1000, 0)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req CreateSessionRequest
		if err := decodeJSON(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), &req); err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return
		}
		m := newManager(Config{Clock: func() time.Time { return now }})
		defer m.Close()
		s, err := m.Create(context.Background(), &req)
		if err != nil {
			return
		}
		rec, err := m.Store().Get(s.ID())
		if err != nil {
			t.Fatalf("created session has no stored record: %v", err)
		}
		restored, err := restoreSession(rec, DefaultAnonWorker, now)
		if err != nil {
			t.Fatalf("stored record does not restore: %v", err)
		}
		if got, want := restoreFingerprint(t, restored, now), restoreFingerprint(t, s, now); got != want {
			t.Fatalf("restored session differs from the created one:\n got %s\nwant %s", got, want)
		}
	})
}
