package service

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"crowdfusion/internal/core"
	"crowdfusion/internal/store"
)

// restoreFixture returns the record of an em session with a committed
// attributed round, an observation log and a half-answered pending batch —
// a record that touches every part of restore.
func restoreFixture(t *testing.T) *store.Record {
	t.Helper()
	m := NewManager(ManagerConfig{})
	defer m.Close()
	now := m.Now()
	s, err := m.Create(context.Background(), workerCreateReq(4, WorkerModelEM))
	if err != nil {
		t.Fatal(err)
	}
	v := 0
	if _, err := s.Merge(context.Background(), now, &AnswersRequest{Version: &v,
		Judgments: judge([]int{0, 1}, []bool{true, false}, []string{"w1", "w2"})}); err != nil {
		t.Fatal(err)
	}
	sel, _, err := s.Select(context.Background(), now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Tasks) < 2 {
		t.Fatalf("need a multi-task batch, got %v", sel.Tasks)
	}
	v = sel.Version
	if _, err := s.Merge(context.Background(), now, &AnswersRequest{Version: &v, Partial: true,
		Judgments: judge(sel.Tasks[:1], []bool{true}, []string{"w3"})}); err != nil {
		t.Fatal(err)
	}
	rec := s.record()
	if _, err := restoreSession(rec.Clone(), "", now); err != nil {
		t.Fatalf("fixture does not restore: %v", err)
	}
	return rec
}

// TestRestoreRejectsMalformedRecords: a record no live session could have
// written fails to restore with an error — it never panics and never comes
// back half-configured. The creation-parameter rows are the checks
// CreateSessionRequest.Validate runs.
func TestRestoreRejectsMalformedRecords(t *testing.T) {
	base := restoreFixture(t)
	outside := -1
	for task := 0; task < 4; task++ {
		in := false
		for _, b := range base.PendingBatch {
			in = in || b == task
		}
		if !in {
			outside = task
			break
		}
	}
	for name, mutate := range map[string]func(r *store.Record){
		"unknown worker model":  func(r *store.Record) { r.WorkerModel = "bogus" },
		"pc below range":        func(r *store.Record) { r.Pc = 0.3 },
		"pc NaN":                func(r *store.Record) { r.Pc = math.NaN() },
		"k zero":                func(r *store.Record) { r.K = 0 },
		"k above budget":        func(r *store.Record) { r.K, r.Budget = 2, 1 },
		"k above round limit":   func(r *store.Record) { r.K = core.MaxTasksPerRound + 1 },
		"budget zero":           func(r *store.Record) { r.Budget = 0 },
		"unknown selector":      func(r *store.Record) { r.Selector = "Oracle" },
		"no prior":              func(r *store.Record) { r.Prior = store.Prior{} },
		"marginal out of range": func(r *store.Record) { r.Prior.Marginals[0] = 2 },
		"joint length mismatch": func(r *store.Record) {
			r.Prior = store.Prior{N: 2, Worlds: []uint64{0, 1}, Probs: []float64{1}}
		},
		"merge version gap":       func(r *store.Record) { r.Ops[0].Version = 5 },
		"merge task out of range": func(r *store.Record) { r.Ops[0].Tasks[0] = 99 },
		"merge answers mismatch":  func(r *store.Record) { r.Ops[0].Answers = r.Ops[0].Answers[:1] },
		"merge over budget":       func(r *store.Record) { r.K, r.Budget = 1, 1 },
		"unknown op kind":         func(r *store.Record) { r.Ops[0].Kind = "bogus" },
		"pending outside batch":   func(r *store.Record) { r.PendingTasks[0] = outside },
		"pending batch out of range": func(r *store.Record) {
			r.PendingBatch = append(r.PendingBatch, 99)
		},
		"pending covers batch": func(r *store.Record) {
			r.PendingTasks = append([]int(nil), r.PendingBatch...)
			r.PendingAnswers = make([]bool, len(r.PendingBatch))
		},
		"pending answers missing": func(r *store.Record) { r.PendingAnswers = nil },
		"observation from the future": func(r *store.Record) {
			r.Observations[len(r.Observations)-1].Version = 99
		},
	} {
		t.Run(name, func(t *testing.T) {
			rec := base.Clone()
			mutate(rec)
			if s, err := restoreSession(rec, "", time.Unix(1000, 0)); err == nil {
				t.Fatalf("malformed record restored: %+v", s.Info(time.Unix(1000, 0), true))
			}
		})
	}
}

// FuzzRestoreRecord: any JSON that decodes to a store.Record either fails
// to restore or restores to a session that can be read, asked for a batch
// and recorded again without panicking.
func FuzzRestoreRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec store.Record
		if err := json.Unmarshal(data, &rec); err != nil {
			return
		}
		now := time.Unix(1000, 0)
		s, err := restoreSession(&rec, "", now)
		if err != nil {
			return
		}
		info := s.Info(now, true)
		// Exhaustive selectors grow combinatorially in n and k; a small
		// override keeps every input's selection cheap.
		if info.N <= 12 {
			if _, _, err := s.Select(context.Background(), now, min(rec.K, 4)); err != nil {
				t.Logf("select: %v", err)
			}
		}
		if got := s.record(); got.ID != rec.ID {
			t.Fatalf("record id %q, want %q", got.ID, rec.ID)
		}
	})
}
