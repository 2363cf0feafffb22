package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
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
	m := newManager(Config{})
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
	for _, op := range rec.Ops {
		if (op.Kind == store.OpMerge || op.Kind == store.OpPartial) && len(op.Sens) != len(op.Tasks) {
			t.Fatalf("fixture %s op records %d channels for %d tasks", op.Kind, len(op.Sens), len(op.Tasks))
		}
	}
	if _, err := restoreSession(rec.Clone(), DefaultAnonWorker, now); err != nil {
		t.Fatalf("fixture does not restore: %v", err)
	}
	return rec
}

// fixtureOp returns the n'th op of kind in a fixture record's journal.
func fixtureOp(t *testing.T, r *store.Record, kind string, n int) *store.Op {
	t.Helper()
	for i := range r.Ops {
		if r.Ops[i].Kind != kind {
			continue
		}
		if n == 0 {
			return &r.Ops[i]
		}
		n--
	}
	t.Fatalf("fixture has no %s op %d", kind, n)
	return nil
}

// TestRestoreRejectsMalformedRecords: a record no live session could have
// written fails to restore with an error — it never panics and never comes
// back half-configured. The creation-parameter rows are the checks
// CreateSessionRequest.Validate runs; the journal rows are the rules
// stepLocked alone enforces.
func TestRestoreRejectsMalformedRecords(t *testing.T) {
	base := restoreFixture(t)
	batch := fixtureOp(t, base, store.OpPartial, 0).Batch
	outside := -1
	for task := 0; task < 4 && outside < 0; task++ {
		if !slices.Contains(batch, task) {
			outside = task
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
		"merge version gap":       func(r *store.Record) { fixtureOp(t, r, store.OpMerge, 0).Version = 5 },
		"merge task out of range": func(r *store.Record) { fixtureOp(t, r, store.OpMerge, 0).Tasks[0] = 99 },
		"merge answers mismatch": func(r *store.Record) {
			m := fixtureOp(t, r, store.OpMerge, 0)
			m.Answers = m.Answers[:1]
		},
		"merge over budget":     func(r *store.Record) { r.K, r.Budget = 1, 1 },
		"unknown op kind":       func(r *store.Record) { fixtureOp(t, r, store.OpMerge, 0).Kind = "bogus" },
		"pending outside batch": func(r *store.Record) { fixtureOp(t, r, store.OpPartial, 0).Tasks[0] = outside },
		"pending batch out of range": func(r *store.Record) {
			p := fixtureOp(t, r, store.OpPartial, 0)
			p.Batch = append(p.Batch, 99)
		},
		"pending covers batch": func(r *store.Record) {
			p := fixtureOp(t, r, store.OpPartial, 0)
			p.Tasks = append([]int(nil), p.Batch...)
			p.Answers = make([]bool, len(p.Batch))
		},
		"pending answers missing": func(r *store.Record) { fixtureOp(t, r, store.OpPartial, 0).Answers = nil },
		"observation from the future": func(r *store.Record) {
			fixtureOp(t, r, store.OpObserve, 1).Version = 99
		},
		"ledger judges a task twice": func(r *store.Record) {
			p := fixtureOp(t, r, store.OpPartial, 0)
			again := *p
			again.Answers = []bool{!p.Answers[0]}
			again.Tasks = p.Tasks[:1]
			r.Ops = append(r.Ops, again)
		},
		"observation without worker": func(r *store.Record) { fixtureOp(t, r, store.OpObserve, 0).Workers[0] = "" },
		"empty merge op": func(r *store.Record) {
			m := fixtureOp(t, r, store.OpMerge, 0)
			m.Tasks, m.Answers = nil, nil
		},
		"empty partial op": func(r *store.Record) {
			p := fixtureOp(t, r, store.OpPartial, 0)
			p.Tasks, p.Answers = nil, nil
		},
		"empty observe op": func(r *store.Record) {
			o := fixtureOp(t, r, store.OpObserve, 0)
			o.Tasks, o.Answers, o.Workers = nil, nil, nil
		},
		"negative task": func(r *store.Record) { fixtureOp(t, r, store.OpObserve, 0).Tasks[0] = -1 },
		"observe workers unpaired": func(r *store.Record) {
			o := fixtureOp(t, r, store.OpObserve, 0)
			o.Workers = o.Workers[:1]
		},
		"observe sources unpaired": func(r *store.Record) {
			fixtureOp(t, r, store.OpObserve, 0).Sources = []string{"a", "b", "c"}
		},
		"merge sens without spec": func(r *store.Record) { fixtureOp(t, r, store.OpMerge, 0).Spec = nil },
		"merge spec without sens": func(r *store.Record) { fixtureOp(t, r, store.OpMerge, 0).Sens = nil },
		"merge channels short": func(r *store.Record) {
			m := fixtureOp(t, r, store.OpMerge, 0)
			m.Sens, m.Spec = m.Sens[:1], m.Spec[:1]
		},
		"partial channels long": func(r *store.Record) {
			p := fixtureOp(t, r, store.OpPartial, 0)
			p.Sens, p.Spec = append(p.Sens, 0.8), append(p.Spec, 0.8)
		},
		"channels on a fixed session": func(r *store.Record) { r.WorkerModel = "" },
		"channels on an observe op": func(r *store.Record) {
			o := fixtureOp(t, r, store.OpObserve, 0)
			o.Sens, o.Spec = make([]float64, len(o.Tasks)), make([]float64, len(o.Tasks))
		},
		"merge sensitivity NaN":        func(r *store.Record) { fixtureOp(t, r, store.OpMerge, 0).Sens[0] = math.NaN() },
		"merge specificity above one":  func(r *store.Record) { fixtureOp(t, r, store.OpMerge, 0).Spec[1] = 1.5 },
		"partial sensitivity negative": func(r *store.Record) { fixtureOp(t, r, store.OpPartial, 0).Sens[0] = -0.1 },
	} {
		t.Run(name, func(t *testing.T) {
			rec := base.Clone()
			mutate(rec)
			if s, err := restoreSession(rec, DefaultAnonWorker, time.Unix(1000, 0)); err == nil {
				t.Fatalf("malformed record restored: %+v", s.Info(context.Background(), time.Unix(1000, 0), true))
			}
		})
	}
}

// restoreFingerprint renders what a restored session shows a client — the
// state with rounds, the per-worker view and the calibration report — with
// every float in its exact shortest form, so equal strings mean equal bits.
func restoreFingerprint(t *testing.T, s *Session, now time.Time) string {
	t.Helper()
	info := s.Info(context.Background(), now, true)
	var pending PendingInfo
	if info.Pending != nil {
		pending = *info.Pending
		info.Pending = nil
	}
	cal, err := s.Calibration(now, 10)
	if err != nil {
		t.Fatalf("calibration: %v", err)
	}
	return fmt.Sprintf("%+v\n%+v\n%+v\n%+v", info, pending, s.WorkerStats(), *cal)
}

// FuzzRestoreRecord: any JSON that decodes to a store.Record either fails
// to restore or restores to a session that can be read and asked for a
// batch without panicking — and whose record restores to the identical
// state, before and after that select: restore∘record is a fixed point.
// Fuzzed channels need match no refit, so whether recorded channels equal
// the recomputed ones is TestLiveMatchesReplay's check, not this one's.
func FuzzRestoreRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec store.Record
		if err := json.Unmarshal(data, &rec); err != nil {
			return
		}
		now := time.Unix(1000, 0)
		s, err := restoreSession(&rec, DefaultAnonWorker, now)
		if err != nil {
			return
		}
		fixedPoint := func() {
			t.Helper()
			again, err := restoreSession(s.record(), DefaultAnonWorker, now)
			if err != nil {
				t.Fatalf("record of a restored session does not restore: %v", err)
			}
			if got, want := restoreFingerprint(t, again, now), restoreFingerprint(t, s, now); got != want {
				t.Fatalf("restore∘record changed the session:\n got %s\nwant %s", got, want)
			}
		}
		fixedPoint()
		// Exhaustive selectors grow combinatorially in n and k; a small
		// override keeps every input's selection cheap.
		if s.Info(context.Background(), now, false).N <= 12 {
			if _, _, err := s.Select(context.Background(), now, min(rec.K, 4)); err != nil {
				t.Logf("select: %v", err)
			}
			fixedPoint()
		}
		if got := s.record(); got.ID != rec.ID {
			t.Fatalf("record id %q, want %q", got.ID, rec.ID)
		}
	})
}
