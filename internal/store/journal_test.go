package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// obsOp builds an OpObserve at version v.
func obsOp(v int, tasks []int, answers []bool, workers, sources []string) Op {
	return Op{
		Kind: OpObserve, Version: v,
		Tasks: tasks, Answers: answers, Workers: workers, Sources: sources,
		Time: time.Unix(2000, 0).UTC(),
	}
}

// kinds lists a journal's op kinds and versions, for compact assertions.
func kinds(ops []Op) [][2]any {
	out := make([][2]any, len(ops))
	for i, op := range ops {
		out[i] = [2]any{op.Kind, op.Version}
	}
	return out
}

// TestConformanceObserveFoldsIntoGet: observe ops join the journal in
// append order without advancing the version — the paired merge still
// lands at the same version afterwards, and keeps them.
func TestConformanceObserveFoldsIntoGet(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		rec := testRecord("sess-observe")
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		// testRecord has two merges, so the live version is 2.
		first := obsOp(2, []int{0, 1}, []bool{true, false}, []string{"w1", "w2"}, []string{"mturk", "mturk"})
		second := obsOp(2, []int{2}, []bool{true}, []string{"w1"}, nil)
		for _, op := range []Op{first, second} {
			if err := s.Append(rec.ID, op); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Ops) != 4 || !reflect.DeepEqual(got.Ops[2], first) || !reflect.DeepEqual(got.Ops[3], second) {
			t.Fatalf("observe ops not folded in order: %+v", got.Ops)
		}
		if err := s.Append(rec.ID, Op{Kind: OpMerge, Version: 2,
			Tasks: []int{0, 1, 2}, Answers: []bool{true, false, true}}); err != nil {
			t.Fatal(err)
		}
		got, err = s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := [][2]any{{OpMerge, 0}, {OpMerge, 1}, {OpObserve, 2}, {OpObserve, 2}, {OpMerge, 2}}
		if !reflect.DeepEqual(kinds(got.Ops), want) {
			t.Fatalf("after merge: %v, want %v", kinds(got.Ops), want)
		}
	})
}

// TestConformanceObserveOrderingWithPartialLedger: observations interleave
// with partial ops during an incremental round and the journal keeps that
// order. The committing merge supersedes the partials but never the
// observations — replay must see every attributed judgment that
// conditioned the posterior.
func TestConformanceObserveOrderingWithPartialLedger(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		rec := testRecord("sess-observe-partial")
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		batch := []int{3, 4, 5}
		for i, op := range []Op{
			obsOp(2, []int{3}, []bool{true}, []string{"w1"}, nil),
			{Kind: OpPartial, Version: 2, Batch: batch, Tasks: []int{3}, Answers: []bool{true}},
			obsOp(2, []int{4}, []bool{false}, []string{"w2"}, nil),
			{Kind: OpPartial, Version: 2, Batch: batch, Tasks: []int{4}, Answers: []bool{false}},
		} {
			if err := s.Append(rec.ID, op); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		got, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := [][2]any{{OpMerge, 0}, {OpMerge, 1},
			{OpObserve, 2}, {OpPartial, 2}, {OpObserve, 2}, {OpPartial, 2}}
		if !reflect.DeepEqual(kinds(got.Ops), want) || got.Ops[4].Workers[0] != "w2" {
			t.Fatalf("open round: %v, want %v", kinds(got.Ops), want)
		}
		// The batch completes: observe the last judgment, then merge.
		if err := s.Append(rec.ID, obsOp(2, []int{5}, []bool{true}, []string{"w1"}, nil)); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(rec.ID, Op{Kind: OpMerge, Version: 2,
			Tasks: batch, Answers: []bool{true, false, true}}); err != nil {
			t.Fatal(err)
		}
		got, err = s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		want = [][2]any{{OpMerge, 0}, {OpMerge, 1},
			{OpObserve, 2}, {OpObserve, 2}, {OpObserve, 2}, {OpMerge, 2}}
		if !reflect.DeepEqual(kinds(got.Ops), want) {
			t.Fatalf("committed round: %v, want %v", kinds(got.Ops), want)
		}
	})
}

// TestConformancePartialOpsFoldIntoPending: partial ops accumulate as the
// journal's open round without advancing the version, and the committing
// merge — which carries the whole batch — supersedes them.
func TestConformancePartialOpsFoldIntoPending(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		rec := testRecord("sess-partial")
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		batch := []int{0, 1, 2}
		partials := []Op{
			{Kind: OpPartial, Version: 2, Tasks: []int{1}, Answers: []bool{true}, Batch: batch},
			{Kind: OpPartial, Version: 2, Tasks: []int{0}, Answers: []bool{false}, Batch: batch},
		}
		for _, op := range partials {
			if err := s.Append(rec.ID, op); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Ops[2:], partials) {
			t.Fatalf("open round %+v, want %+v", got.Ops[2:], partials)
		}
		if err := s.Append(rec.ID, Op{Kind: OpMerge, Version: 2, Tasks: batch, Answers: []bool{false, true, true}}); err != nil {
			t.Fatal(err)
		}
		got, err = s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := [][2]any{{OpMerge, 0}, {OpMerge, 1}, {OpMerge, 2}}
		if !reflect.DeepEqual(kinds(got.Ops), want) {
			t.Fatalf("commit did not supersede the partials: %v", kinds(got.Ops))
		}
	})
}

// TestConformancePartialOpValidation: the store holds a partial op to the
// journal's ordering rule and nothing more — which tasks a ledger may
// judge is the session's rule, so the store journals what it is given.
func TestConformancePartialOpValidation(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		rec := testRecord("sess-partial-bad")
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		batch := []int{0, 1, 2}
		if err := s.Append(rec.ID, Op{Kind: OpPartial, Version: 5, Tasks: []int{0}, Answers: []bool{true}, Batch: batch}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("future partial: %v, want ErrCorrupt", err)
		}
		outside := Op{Kind: OpPartial, Version: 2, Tasks: []int{7}, Answers: []bool{true}, Batch: batch}
		if err := s.Append(rec.ID, outside); err != nil {
			t.Fatalf("in-order partial refused: %v", err)
		}
		if err := s.Append(rec.ID, Op{Kind: OpMerge, Version: 2, Tasks: batch, Answers: []bool{true, true, true}}); err != nil {
			t.Fatal(err)
		}
		// Once its batch committed, a partial for the old version is stale.
		if err := s.Append(rec.ID, Op{Kind: OpPartial, Version: 2, Tasks: []int{0}, Answers: []bool{true}, Batch: batch}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("stale partial: %v, want ErrCorrupt", err)
		}
		got, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Ops) != 3 {
			t.Fatalf("journal after refusals: %v", kinds(got.Ops))
		}
	})
}

// TestConformancePutValidatesPending: a snapshot's open round obeys the
// ordering rule like any other op — an open ledger round-trips, a partial
// at a version the journal has not reached is refused.
func TestConformancePutValidatesPending(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		rec := testRecord("sess-pending-snapshot")
		rec.Ops = append(rec.Ops, Op{Kind: OpPartial, Version: 2, Tasks: []int{0}, Answers: []bool{true}, Batch: []int{0, 1}})
		if err := s.Put(rec); err != nil {
			t.Fatalf("open round refused: %v", err)
		}
		got, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("open round round trip:\n got %+v\nwant %+v", got, rec)
		}
		ahead := testRecord("sess-pending-ahead")
		ahead.Ops = append(ahead.Ops, Op{Kind: OpPartial, Version: 3, Tasks: []int{0}, Answers: []bool{true}, Batch: []int{0, 1}})
		if err := s.Put(ahead); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("partial ahead of the journal: %v, want ErrCorrupt", err)
		}
	})
}

// TestConformancePutValidatesObservations: observe ops in a snapshot obey
// the ordering rule — none from a version the journal has not reached,
// none behind a later one — and a well-formed history round-trips.
func TestConformancePutValidatesObservations(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		for name, obs := range map[string][]Op{
			"version beyond ops": {obsOp(3, []int{0}, []bool{true}, []string{"w1"}, nil)},
			"decreasing versions": {
				obsOp(2, []int{0}, []bool{true}, []string{"w1"}, nil),
				obsOp(1, []int{1}, []bool{true}, []string{"w1"}, nil),
			},
		} {
			rec := testRecord("sess-observe-put")
			rec.Ops = append(rec.Ops, obs...)
			if err := s.Put(rec); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
			}
		}
		rec := testRecord("sess-observe-put")
		rec.WorkerModel = "em"
		rec.Ops = []Op{
			obsOp(0, []int{0}, []bool{true}, []string{"w1"}, []string{"sim"}),
			rec.Ops[0],
			obsOp(1, []int{2}, []bool{false}, []string{"w2"}, nil),
			rec.Ops[1],
		}
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, rec)
		}
	})
}

// TestFileObserveSurvivesRestart: observe ops are fsynced before Append
// acknowledges, so an acknowledged observation survives SIGKILL (simulated
// by reopening the directory without Close).
func TestFileObserveSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	fs := reopen(t, dir, 0)
	rec := testRecord("sess-observe-kill")
	if err := fs.Put(rec); err != nil {
		t.Fatal(err)
	}
	op := obsOp(2, []int{0, 2}, []bool{true, false}, []string{"w1", "w2"}, []string{"sim", "sim"})
	if err := fs.Append(rec.ID, op); err != nil {
		t.Fatal(err)
	}
	got, err := reopen(t, dir, 0).Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != 3 || !reflect.DeepEqual(got.Ops[2], op) {
		t.Fatalf("restart lost the observe op: %+v", got.Ops)
	}
}

// TestFileObserveTornTailRecovers: a torn observe line, or one whose line
// number skips ahead, at the log tail is truncated like any other bad
// line, recovering every acknowledged op and accepting fresh appends.
func TestFileObserveTornTailRecovers(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail string
	}{
		{"torn observe", `{"line":2,"op":"observe","version":2,"tasks":[1],"answ`},
		{"gapped seq", `{"line":5,"op":"observe","version":2,"tasks":[1],"answers":[true],"workers":["w9"]}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := reopen(t, dir, 0)
			rec := testRecord("sess-observe-torn")
			if err := fs.Put(rec); err != nil {
				t.Fatal(err)
			}
			if err := fs.Append(rec.ID, obsOp(2, []int{0}, []bool{true}, []string{"w1"}, nil)); err != nil {
				t.Fatal(err)
			}
			appendRaw(t, filepath.Join(dir, rec.ID+".log"), tc.tail)

			fs2 := reopen(t, dir, 0)
			got, err := fs2.Get(rec.ID)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if len(got.Ops) != 3 || got.Ops[2].Workers[0] != "w1" {
				t.Fatalf("recovered journal: %+v", got.Ops)
			}
			// The tail was repaired: the next observe extends cleanly.
			if err := fs2.Append(rec.ID, obsOp(2, []int{1}, []bool{false}, []string{"w2"}, nil)); err != nil {
				t.Fatal(err)
			}
			got, err = reopen(t, dir, 0).Get(rec.ID)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Ops) != 4 {
				t.Fatalf("append after repair lost: %+v", got.Ops)
			}
		})
	}
}

// TestFilePartialSurvivesReopen: the open round is durable — a fresh store
// over the same directory folds the logged partials back in.
func TestFilePartialSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	fs := reopen(t, dir, 0)
	rec := testRecord("sess-partial-reopen")
	if err := fs.Put(rec); err != nil {
		t.Fatal(err)
	}
	batch := []int{0, 2}
	partial := Op{Kind: OpPartial, Version: 2, Tasks: []int{2}, Answers: []bool{true}, Batch: batch}
	if err := fs.Append(rec.ID, partial); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	fs2 := reopen(t, dir, 0)
	defer fs2.Close()
	got, err := fs2.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != 3 || !reflect.DeepEqual(got.Ops[2], partial) {
		t.Fatalf("reopened open round: %+v", got.Ops)
	}
	// The round can still be committed after reopen.
	if err := fs2.Append(rec.ID, Op{Kind: OpMerge, Version: 2, Tasks: batch, Answers: []bool{true, false}}); err != nil {
		t.Fatal(err)
	}
	got, err = fs2.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][2]any{{OpMerge, 0}, {OpMerge, 1}, {OpMerge, 2}}; !reflect.DeepEqual(kinds(got.Ops), want) {
		t.Fatalf("post-commit journal: %v", kinds(got.Ops))
	}
}

// appendRaw appends raw bytes to a file, as a crash or a scribble would.
func appendRaw(t *testing.T, path, data string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConformanceChannelsRoundTrip: the per-judgment channels a merge op
// records come back bit for bit — from the op log and from a
// snapshot — and the store keeps its own copy, because replay conditions
// on them instead of recomputing them.
func TestConformanceChannelsRoundTrip(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		rec := testRecord("sess-channels")
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		merge := Op{Kind: OpMerge, Version: 2, Tasks: []int{0, 1}, Answers: []bool{false, true},
			Sens: []float64{0.1 + 0.2, 0.8380000000000001}, Spec: []float64{5e-324, 1.0 / 3}}
		if err := s.Append(rec.ID, merge.clone()); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if last := got.Ops[len(got.Ops)-1]; !reflect.DeepEqual(last, merge) {
			t.Fatalf("merge from the log: %+v, want %+v", last, merge)
		}
		if err := s.Put(got); err != nil {
			t.Fatal(err)
		}
		got.Ops[len(got.Ops)-1].Spec[1] = 0.5 // the caller's copy, not the store's
		again, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if last := again.Ops[len(again.Ops)-1]; !reflect.DeepEqual(last, merge) {
			t.Fatalf("merge from the snapshot: %+v, want %+v", last, merge)
		}
	})
}
