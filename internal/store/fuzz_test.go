package store

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzFileLoad drives File's read path — snapshot decoding, line
// numbering, torn-tail repair and migration from the split layout — over
// arbitrary (snapshot, log) file pairs for the session "fuzz". A load
// never panics: it returns an error or a record. A successful load leaves
// a log that is a prefix of the one it found, ending on a line boundary; a
// failed one leaves both files as they were. Either way a second load
// agrees with the first and changes nothing.
func FuzzFileLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, snap, log []byte) {
		dir := t.TempDir()
		snapPath, logPath := filepath.Join(dir, "fuzz.json"), filepath.Join(dir, "fuzz.log")
		if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logPath, log, 0o644); err != nil {
			t.Fatal(err)
		}
		read := func(path string) []byte {
			b, err := os.ReadFile(path)
			if err != nil && !errors.Is(err, fs.ErrNotExist) {
				t.Fatal(err)
			}
			return b
		}

		rec, err := reopen(t, dir, 0).Get("fuzz")
		snapAfter, logAfter := read(snapPath), read(logPath)
		if err != nil {
			if !bytes.Equal(snapAfter, snap) || !bytes.Equal(logAfter, log) {
				t.Fatalf("failed load (%v) changed the files", err)
			}
		} else if !bytes.HasPrefix(log, logAfter) || (len(logAfter) > 0 && logAfter[len(logAfter)-1] != '\n') {
			t.Fatalf("log left on disk is not a line-boundary prefix:\n found %q\n  left %q", log, logAfter)
		}

		again, err2 := reopen(t, dir, 0).Get("fuzz")
		if (err == nil) != (err2 == nil) {
			t.Fatalf("loads disagree: %v, then %v", err, err2)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("second load differs:\n first %+v\nsecond %+v", rec, again)
		}
		if !bytes.Equal(read(snapPath), snapAfter) || !bytes.Equal(read(logPath), logAfter) {
			t.Fatal("second load changed the files")
		}
	})
}
