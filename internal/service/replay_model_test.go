package service

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"crowdfusion/internal/chaos"
	"crowdfusion/internal/store"
)

// observeTrap arms one append fault on the wrapped chaos store right after
// the next observe op lands, so the merge or partial op journaled behind
// that observe op is the append that fails.
type observeTrap struct {
	*chaos.Store
	armed atomic.Bool
}

func (s *observeTrap) Append(id string, op store.Op) error {
	err := s.Store.Append(id, op)
	if err == nil && op.Kind == store.OpObserve && s.armed.CompareAndSwap(true, false) {
		s.Store.FailAppends(1)
	}
	return err
}

// cloneAnswers deep-copies an answers request so a derived retry never
// aliases the request it was derived from.
func cloneAnswers(r *AnswersRequest) *AnswersRequest {
	c := *r
	c.Judgments = append([]Judgment(nil), r.Judgments...)
	c.Tasks = append([]int(nil), r.Tasks...)
	c.Answers = append([]bool(nil), r.Answers...)
	if r.Version != nil {
		v := *r.Version
		c.Version = &v
	}
	return &c
}

// TestLiveMatchesReplay is the model-based live ≡ replay check: seeded
// random interleavings of selects, merges, partials, retries of every kind
// and injected append faults run against a live session on a file store,
// and after every op a fresh instance recovered from that store must be
// indistinguishable from the live one — same fingerprint and rounds, same
// worker statistics and calibration, and the same response to the next
// request. Budget spent must always equal the committed batch sizes.
func TestLiveMatchesReplay(t *testing.T) {
	for _, model := range []string{WorkerModelFixed, WorkerModelEM, WorkerModelDawidSkene} {
		for _, seed := range []int64{1, 2, 5, 6, 16} {
			t.Run(fmt.Sprintf("%s/seed%d", model, seed), func(t *testing.T) {
				runLiveReplayModel(t, model, seed)
			})
		}
	}
}

// requireRecomputedChannels checks that the channels an em or dawid-skene
// record carries are the ones its refits compute: every conditioning op
// records one per judgment, and the record stripped of them — replayed the
// old way, refitting after every merge — restores to the session the fast
// restore (twin) and live are, with the same refit count and worker view,
// and without gaining channels.
func requireRecomputedChannels(t *testing.T, rec *store.Record, twin, live *Session, now time.Time) {
	t.Helper()
	stripped := rec.Clone()
	for i := range stripped.Ops {
		op := &stripped.Ops[i]
		if (op.Kind == store.OpMerge || op.Kind == store.OpPartial) && (len(op.Sens) != len(op.Tasks) || len(op.Spec) != len(op.Tasks)) {
			t.Fatalf("%s op at version %d records %d/%d channels for %d tasks",
				op.Kind, op.Version, len(op.Sens), len(op.Spec), len(op.Tasks))
		}
		op.Sens, op.Spec = nil, nil
	}
	old, err := restoreSession(stripped, DefaultAnonWorker, now)
	if err != nil {
		t.Fatalf("restore without channels: %v", err)
	}
	for _, op := range old.record().Ops {
		if len(op.Sens) > 0 || len(op.Spec) > 0 {
			t.Fatalf("replay rewrote a %s op of a journal without channels", op.Kind)
		}
	}
	for _, s := range []*Session{twin, live} {
		requireIdentical(t, fingerprint(old, now), fingerprint(s, now))
		s.mu.Lock()
		refits := s.refits
		s.mu.Unlock()
		if old.refits != refits {
			t.Fatalf("refits: %d replaying without channels, %d with", old.refits, refits)
		}
		if got, want := old.WorkerStats(), s.WorkerStats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("worker stats diverged without channels:\n got %+v\nwant %+v", got, want)
		}
	}
}

func runLiveReplayModel(t *testing.T, model string, seed int64) {
	ctx := context.Background()
	now := time.Unix(1000, 0)
	fs, err := store.NewFile(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	trap := &observeTrap{Store: chaos.Wrap(fs)}
	m := newManager(Config{Store: trap, Clock: func() time.Time { return now }})
	defer m.Close()
	live, err := m.Create(ctx, &CreateSessionRequest{
		Marginals:   []float64{0.5, 0.6, 0.4, 0.7, 0.3, 0.55},
		Pc:          0.8,
		K:           3,
		Budget:      24,
		Seed:        seed,
		WorkerModel: model,
	})
	if err != nil {
		t.Fatal(err)
	}
	recoverTwin := func() *Session {
		t.Helper()
		rec, err := trap.Get(live.ID())
		if err != nil {
			t.Fatal(err)
		}
		twin, err := restoreSession(rec.Clone(), DefaultAnonWorker, now)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if model != WorkerModelFixed {
			requireRecomputedChannels(t, rec, twin, live, now)
		}
		return twin
	}

	rng := rand.New(rand.NewSource(seed))
	retryRng := rand.New(rand.NewSource(-seed))
	crew := []string{"w1", "w2", "w3", ""}
	// The live session's outstanding selection: its tasks, the k override
	// that chose them and the version they were chosen at. The selection
	// cache is not durable, so the twin re-selects with the same k before
	// it answers — exactly what a client does after a restart.
	var selTasks []int
	selK, selV := 0, -1
	var history []*AnswersRequest
	// recent picks one of the last few submissions: a retry of something
	// the session just committed (or refused) is the interesting case.
	recent := func() *AnswersRequest {
		return history[len(history)-1-rng.Intn(min(len(history), 3))]
	}

	// answerSet builds a fresh submission for tasks in a random form.
	answerSet := func(tasks []int, version int, partial bool) *AnswersRequest {
		req := &AnswersRequest{Partial: partial}
		if rng.Intn(5) > 0 {
			v := version
			req.Version = &v
		}
		if rng.Intn(2) == 0 {
			req.Tasks = append([]int(nil), tasks...)
			for range tasks {
				req.Answers = append(req.Answers, rng.Intn(2) == 0)
			}
			return req
		}
		for _, task := range tasks {
			req.Judgments = append(req.Judgments, Judgment{
				Task: task, Answer: rng.Intn(2) == 0, Worker: crew[rng.Intn(len(crew))]})
		}
		return req
	}
	// fresh generates a new full or partial answer set against the live
	// session's outstanding batch, or an out-of-band one when none is.
	fresh := func(info SessionInfo) *AnswersRequest {
		batch := selTasks
		if info.Pending != nil {
			batch = info.Pending.Tasks
		} else if selV != info.Version || len(batch) == 0 {
			batch = rng.Perm(info.N)[:1+rng.Intn(3)]
		}
		if rng.Intn(2) == 0 {
			return answerSet(batch, info.Version, false)
		}
		var subset []int
		for _, task := range batch {
			if rng.Intn(2) == 0 {
				subset = append(subset, task)
			}
		}
		if len(subset) == 0 {
			subset = batch[:1]
		}
		return answerSet(subset, info.Version, true)
	}

	twin := recoverTwin()
	for step := 0; step < 40; step++ {
		info := live.Info(context.Background(), now, false)
		var req *AnswersRequest
		fault := ""
		switch op := rng.Intn(20); {
		case op < 5:
			k := rng.Intn(4)
			got, _, err := live.Select(ctx, now, k)
			if err != nil {
				t.Fatalf("step %d: live select: %v", step, err)
			}
			if info.Pending == nil {
				selTasks, selK, selV = got.Tasks, k, got.Version
			}
			want, _, err := twin.Select(ctx, now, k)
			if err != nil {
				t.Fatalf("step %d: twin select: %v", step, err)
			}
			// Whether the batch came from the selection cache is not
			// durable state.
			got.Cached, want.Cached = false, false
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: select diverged:\n live %+v\n twin %+v", step, got, want)
			}
		case op < 13 || len(history) == 0:
			req = fresh(info)
		case op < 14:
			req = recent()
		case op < 15:
			req = cloneAnswers(recent())
			if len(req.Judgments) > 0 {
				req.Judgments[0].Answer = !req.Judgments[0].Answer
			} else {
				req.Answers[0] = !req.Answers[0]
			}
		case op < 16:
			req = cloneAnswers(recent())
			if len(req.Judgments) == 0 {
				for i, task := range req.Tasks {
					req.Judgments = append(req.Judgments, Judgment{Task: task, Answer: req.Answers[i]})
				}
				req.Tasks, req.Answers = nil, nil
			}
			req.Judgments[0].Worker = "w9"
		case op < 17:
			req = cloneAnswers(recent())
			req.Version = nil
		case op < 19:
			req, fault = fresh(info), "first append"
			trap.FailAppends(1)
		default:
			req, fault = fresh(info), "append after observe"
			trap.armed.Store(true)
		}

		if req != nil {
			history = append(history, req)
			got, gotErr := live.Merge(ctx, now, req)
			trap.FailAppends(0)
			trap.armed.Store(false)
			if fault == "" {
				if selV == info.Version {
					if _, _, err := twin.Select(ctx, now, selK); err != nil {
						t.Fatalf("step %d: twin re-select: %v", step, err)
					}
				}
				want, wantErr := twin.Merge(ctx, now, req)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: answers %+v diverged:\n live %+v, %v\n twin %+v, %v",
						step, req, got, gotErr, want, wantErr)
				}
			}
		}

		// The retry oracle, on its own random stream so the interleavings
		// above stay what they were: a versionless resubmission of any
		// committed answer set — also while the next round's ledger is open
		// — is a retry, and a retry never commits.
		if state := live.Info(context.Background(), now, true); len(state.Rounds) > 0 && retryRng.Intn(3) == 0 {
			r := state.Rounds[retryRng.Intn(len(state.Rounds))]
			retry := &AnswersRequest{Tasks: r.Tasks, Answers: r.Answers}
			got, err := live.Merge(ctx, now, retry)
			if err != nil || got.Merged {
				t.Fatalf("step %d: versionless retry of round %d %v/%v (ledger open: %v): merged=%v, err %v",
					step, r.Round, r.Tasks, r.Answers, state.Pending != nil, got != nil && got.Merged, err)
			}
		}

		twin = recoverTwin()
		requireIdentical(t, fingerprint(twin, now), fingerprint(live, now))
		if got, want := twin.WorkerStats(), live.WorkerStats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (fault %q): worker stats diverged:\n twin %+v\n live %+v", step, fault, got, want)
		}
		gotCal, err := twin.Calibration(now, 10)
		if err != nil {
			t.Fatal(err)
		}
		wantCal, err := live.Calibration(now, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotCal, wantCal) {
			t.Fatalf("step %d (fault %q): calibration diverged:\n twin %+v\n live %+v", step, fault, gotCal, wantCal)
		}
		full := live.Info(context.Background(), now, true)
		committed := 0
		for _, r := range full.Rounds {
			committed += len(r.Tasks)
		}
		if full.Spent != committed || full.Spent > full.Budget {
			t.Fatalf("step %d: spent %d, committed batches %d, budget %d", step, full.Spent, committed, full.Budget)
		}
	}
}
