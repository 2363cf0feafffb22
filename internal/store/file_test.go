package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// reopen simulates a process restart: a fresh *File over the same
// directory, with none of the in-memory bookkeeping.
func reopen(t *testing.T, dir string, compactEvery int) *File {
	t.Helper()
	fs, err := NewFile(dir, compactEvery)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestFileSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	fs := reopen(t, dir, 0)
	rec := testRecord("sess-reopen")
	if err := fs.Put(rec); err != nil {
		t.Fatal(err)
	}
	op := Op{Kind: OpMerge, Version: 2, Tasks: []int{0}, Answers: []bool{true},
		Time: time.Unix(5000, 0).UTC()}
	if err := fs.Append(rec.ID, op); err != nil {
		t.Fatal(err)
	}

	// No Close, no flush: everything acknowledged must already be on disk.
	got, err := reopen(t, dir, 0).Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Clone()
	want.Ops = append(want.Ops, op)
	want.LastAccess = op.Time
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen lost state:\n got %+v\nwant %+v", got, want)
	}
}

// TestFileCorruptTailRecovers is the acceptance edge case: a log whose tail
// is garbage (torn write, disk scribble, a line out of sequence) must
// recover to the last good record, and the bad tail must be truncated so
// later appends extend valid state. The two good lines are numbered 1, 2.
func TestFileCorruptTailRecovers(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail string
	}{
		{"garbage line", "{{{ not json\n"},
		{"torn line", `{"line":3,"op":"merge","version":2,"tasks":[1],"an`}, // no newline
		{"version gap", `{"line":3,"op":"merge","version":7,"tasks":[1],"answers":[true]}` + "\n"},
		{"unknown kind", `{"line":3,"op":"select","version":2}` + "\n"},
		{"no line number", `{"op":"merge","version":2,"tasks":[1],"answers":[true]}` + "\n"},
		{"line number gap", `{"line":4,"op":"merge","version":2,"tasks":[1],"answers":[true]}` + "\n"},
		{"line number repeated", `{"line":2,"op":"merge","version":2,"tasks":[1],"answers":[true]}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := reopen(t, dir, 0)
			rec := testRecord("sess-tail")
			rec.Ops = nil
			if err := fs.Put(rec); err != nil {
				t.Fatal(err)
			}
			good := []Op{
				{Kind: OpMerge, Version: 0, Tasks: []int{0}, Answers: []bool{true}},
				{Kind: OpMerge, Version: 1, Tasks: []int{2}, Answers: []bool{false}},
			}
			for _, op := range good {
				if err := fs.Append(rec.ID, op); err != nil {
					t.Fatal(err)
				}
			}
			appendRaw(t, filepath.Join(dir, rec.ID+".log"), tc.tail)

			fs2 := reopen(t, dir, 0)
			got, err := fs2.Get(rec.ID)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if len(got.Ops) != len(good) {
				t.Fatalf("recovered %d ops, want %d", len(got.Ops), len(good))
			}
			for i, op := range good {
				if got.Ops[i].Version != op.Version || !reflect.DeepEqual(got.Ops[i].Tasks, op.Tasks) {
					t.Fatalf("op %d corrupted: %+v", i, got.Ops[i])
				}
			}
			// The tail was repaired: the next append lands cleanly and a
			// fresh reopen sees it.
			next := Op{Kind: OpMerge, Version: 2, Tasks: []int{1}, Answers: []bool{true}}
			if err := fs2.Append(rec.ID, next); err != nil {
				t.Fatal(err)
			}
			got, err = reopen(t, dir, 0).Get(rec.ID)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Ops) != 3 || got.Ops[2].Version != 2 {
				t.Fatalf("append after repair lost: %+v", got.Ops)
			}
		})
	}
}

func TestFileCompactionFoldsLog(t *testing.T) {
	dir := t.TempDir()
	fs := reopen(t, dir, 3)
	rec := testRecord("sess-compact")
	rec.Ops = nil
	if err := fs.Put(rec); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 7; v++ {
		if err := fs.Append(rec.ID, Op{Kind: OpMerge, Version: v, Tasks: []int{v % 3}, Answers: []bool{true}}); err != nil {
			t.Fatal(err)
		}
	}
	// 7 appends with compactEvery=3: two compactions happened, one op in
	// the live log.
	logData, err := os.ReadFile(filepath.Join(dir, rec.ID+".log"))
	if err != nil {
		t.Fatal(err)
	}
	var snap Record
	snapData, err := os.ReadFile(filepath.Join(dir, rec.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(snapData, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Ops) != 6 {
		t.Fatalf("snapshot holds %d ops after compaction, want 6", len(snap.Ops))
	}
	if n := len(splitLines(logData)); n != 1 {
		t.Fatalf("log holds %d ops after compaction, want 1", n)
	}
	got, err := reopen(t, dir, 3).Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != 7 {
		t.Fatalf("compaction lost ops: %d, want 7", len(got.Ops))
	}
}

// TestFileCrashedCompactionHeals covers the crash window between writing
// the compacted snapshot and removing the log: the snapshot records the
// last line it absorbed, so the stale lines are skipped — whatever their
// kind — and appends after them still fold.
func TestFileCrashedCompactionHeals(t *testing.T) {
	dir := t.TempDir()
	fs := reopen(t, dir, 0)
	rec := testRecord("sess-crashed")
	if err := fs.Put(rec); err != nil {
		t.Fatal(err)
	}
	for _, op := range []Op{
		obsOp(2, []int{0}, []bool{true}, []string{"w1"}, nil),
		{Kind: OpPartial, Version: 2, Tasks: []int{0}, Answers: []bool{true}, Batch: []int{0, 1}},
		{Kind: OpDone, Version: 2},
	} {
		if err := fs.Append(rec.ID, op); err != nil {
			t.Fatal(err)
		}
	}
	logPath := filepath.Join(dir, rec.ID+".log")
	stale, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Compact, then put back the log a crash before its removal leaves.
	folded, err := fs.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(folded); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	// The store notices the log it did not write and numbers on past it.
	next := Op{Kind: OpMerge, Version: 2, Tasks: []int{0, 1}, Answers: []bool{true, false}}
	if err := fs.Append(rec.ID, next); err != nil {
		t.Fatal(err)
	}
	got, err := reopen(t, dir, 0).Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]any{{OpMerge, 0}, {OpMerge, 1}, {OpObserve, 2}, {OpMerge, 2}}
	if !reflect.DeepEqual(kinds(got.Ops), want) {
		t.Fatalf("healed journal %v, want %v", kinds(got.Ops), want)
	}
}

// TestFilePutStampsLastLogLine: a Put from a process that never read the
// session (no cached line number) reads the log it replaces, so a crash
// before the log's removal still leaves only lines a load skips.
func TestFilePutStampsLastLogLine(t *testing.T) {
	dir := t.TempDir()
	fs := reopen(t, dir, 0)
	rec := testRecord("sess-stamp")
	if err := fs.Put(rec); err != nil {
		t.Fatal(err)
	}
	op := Op{Kind: OpMerge, Version: 2, Tasks: []int{1}, Answers: []bool{true}}
	if err := fs.Append(rec.ID, op); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, rec.ID+".log")
	stale, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	folded := rec.Clone()
	folded.Ops = append(folded.Ops, op)
	if err := reopen(t, dir, 0).Put(folded); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	fs2 := reopen(t, dir, 0)
	got, err := fs2.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, folded) {
		t.Fatalf("stale line folded twice:\n got %v\nwant %v", kinds(got.Ops), kinds(folded.Ops))
	}
	// Numbering continues past the absorbed line.
	if err := fs2.Append(rec.ID, Op{Kind: OpDone, Version: 3}); err != nil {
		t.Fatal(err)
	}
	if got, err = reopen(t, dir, 0).Get(rec.ID); err != nil || len(got.Ops) != 4 {
		t.Fatalf("append after stamped put: %v, %v", got, err)
	}
}

func TestFileListIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	fs := reopen(t, dir, 0)
	if err := fs.Put(testRecord("sess-listed")); err != nil {
		t.Fatal(err)
	}
	// Leftover temp file from a crashed snapshot write, a log, and noise.
	for _, name := range []string{"sess-x.json.tmp", "sess-listed.log", "README"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "sess-listed" {
		t.Fatalf("List = %v, want [sess-listed]", ids)
	}
}

func TestFileLockExcludesSecondStore(t *testing.T) {
	dir := t.TempDir()
	fs1 := reopen(t, dir, 0)
	if err := fs1.Lock(); err != nil {
		t.Fatal(err)
	}
	// A second store over the same dir (separate file description, as a
	// second process would have) must be refused while fs1 holds the lock.
	fs2 := reopen(t, dir, 0)
	if err := fs2.Lock(); err == nil {
		t.Fatal("second store acquired the data-dir lock")
	}
	if err := fs1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Lock(); err != nil {
		t.Fatalf("lock not released by Close: %v", err)
	}
	if err := fs2.Close(); err != nil {
		t.Fatal(err)
	}
	// Lock is idempotent on a held store.
	fs3 := reopen(t, dir, 0)
	if err := fs3.Lock(); err != nil {
		t.Fatal(err)
	}
	if err := fs3.Lock(); err != nil {
		t.Fatalf("re-Lock on the holder failed: %v", err)
	}
	fs3.Close()
	// The LOCK file is store bookkeeping, not a session.
	ids, err := fs3.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("List sees lock file: %v", ids)
	}
}

// TestFileAppendFencesSecondProcess covers the shared-data-dir discipline
// cluster mode relies on: when another process (here: a second *File over
// the same dir) appends to a session's log, this process's next Append
// must notice via the stat fence, resync from disk, and refuse a
// divergent version with ErrCorrupt instead of forking the history — and
// then continue correctly from the real head.
func TestFileAppendFencesSecondProcess(t *testing.T) {
	dir := t.TempDir()
	a := reopen(t, dir, 0)
	defer a.Close()
	b := reopen(t, dir, 0)
	defer b.Close()

	rec := testRecord("sess-fence")
	rec.Ops = nil
	if err := a.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(rec.ID, Op{Kind: OpMerge, Version: 0, Tasks: []int{0}, Answers: []bool{true}}); err != nil {
		t.Fatal(err)
	}
	// Process B adopts the session (ownership flap) and appends v1.
	theirs := Op{Kind: OpMerge, Version: 1, Tasks: []int{2}, Answers: []bool{false}}
	if err := b.Append(rec.ID, theirs); err != nil {
		t.Fatal(err)
	}
	// Process A, whose bookkeeping still says nextVer=1, tries its own,
	// different v1: the fence must detect B's write and refuse.
	ours := Op{Kind: OpMerge, Version: 1, Tasks: []int{1}, Answers: []bool{true}}
	if err := a.Append(rec.ID, ours); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("divergent append = %v, want ErrCorrupt", err)
	}
	// A is resynced now: the in-order continuation lands.
	if err := a.Append(rec.ID, Op{Kind: OpMerge, Version: 2, Tasks: []int{0}, Answers: []bool{false}}); err != nil {
		t.Fatal(err)
	}
	got, err := a.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != 3 || !reflect.DeepEqual(got.Ops[1].Tasks, theirs.Tasks) {
		t.Fatalf("history forked: %+v", got.Ops)
	}
}

func TestFileCorruptSnapshotIsAnError(t *testing.T) {
	dir := t.TempDir()
	fs := reopen(t, dir, 0)
	if err := os.WriteFile(filepath.Join(dir, "sess-bad.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get("sess-bad"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot Get = %v, want ErrCorrupt", err)
	}
}

// splitLines counts complete newline-terminated lines.
func splitLines(b []byte) [][]byte {
	var lines [][]byte
	for len(b) > 0 {
		i := -1
		for j, c := range b {
			if c == '\n' {
				i = j
				break
			}
		}
		if i < 0 {
			break
		}
		lines = append(lines, b[:i])
		b = b[i+1:]
	}
	return lines
}
