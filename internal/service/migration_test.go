package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crowdfusion/internal/store"
)

// legacyDir is a data dir written in the split record layout, with the
// client-visible state each of its sessions recovered to there
// (golden.json); see its README.md.
var legacyDir = filepath.Join("..", "store", "testdata", "legacy")

// migrationFingerprint is what golden.json holds per session.
type migrationFingerprint struct {
	Name        string               `json:"name"`
	Info        SessionInfo          `json:"info"`
	Workers     []WorkerInfo         `json:"workers"`
	Calibration *CalibrationResponse `json:"calibration"`
}

// TestMigrateLegacyDataDir: a data dir in the split layout upgrades in
// place. Each session's first load restores it bit-identically to the
// state the split layout recovered to — through a crashed compaction, a
// torn tail, open ledgers and done latches — and rewrites its files in the
// journal format; a second load of the rewritten dir is identical and
// leaves every file as it was.
func TestMigrateLegacyDataDir(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(legacyDir, "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]migrationFingerprint
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join(legacyDir, "datadir"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(legacyDir, "datadir", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	now := time.Unix(1_700_000_000, 0).UTC()
	load := func() {
		t.Helper()
		fs, err := store.NewFile(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		m := newManager(Config{Store: fs, Clock: func() time.Time { return now }})
		for id, want := range golden {
			s, err := m.Get(context.Background(), id)
			if err != nil {
				t.Fatalf("%s (%s): %v", id, want.Name, err)
			}
			cal, err := s.Calibration(now, 10)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(migrationFingerprint{Name: want.Name, Info: s.Info(context.Background(), now, true), Workers: s.WorkerStats(), Calibration: cal})
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantJSON) {
				t.Fatalf("%s (%s) diverged from the split layout's recovery:\n got %s\nwant %s", id, want.Name, got, wantJSON)
			}
		}
		// The manager is dropped without Close, as a crash would: Close
		// flushes, and the files must already be in the journal format.
	}

	load()
	for id, want := range golden {
		var snap map[string]json.RawMessage
		b, err := os.ReadFile(filepath.Join(dir, id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &snap); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"done", "pending_batch", "pending_tasks", "pending_answers", "observations"} {
			if _, ok := snap[key]; ok {
				t.Fatalf("%s (%s): rewritten snapshot still has %q", id, want.Name, key)
			}
		}
		if _, ok := snap["format"]; !ok {
			t.Fatalf("%s (%s): snapshot not rewritten: %s", id, want.Name, b)
		}
		if _, err := os.Stat(filepath.Join(dir, id+".log")); !os.IsNotExist(err) {
			t.Fatalf("%s (%s): split-layout log survived the rewrite: %v", id, want.Name, err)
		}
	}
	before := readDir(t, dir)
	load()
	if after := readDir(t, dir); !equalFiles(before, after) {
		t.Fatal("a second load of the rewritten dir changed its files")
	}
}

// readDir returns every session file in dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".lock" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

func equalFiles(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			return false
		}
	}
	return true
}
