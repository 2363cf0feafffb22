package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// The golden files under testdata/ pin every experiment's output at
// -books 30: stdout as <exp>.golden, and for the figures also the -csv file
// as <exp>.csv. table5 is left out because it prints wall-clock times.
// After a change that is meant to move the numbers, regenerate them with
//
//	go test ./cmd/experiments -run TestGolden -update
//
// and review the diff under cmd/experiments/testdata/.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// runMainEnv makes the test binary run the command's main instead of the
// tests, so each experiment runs with its real flag parsing and stdout.
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestGolden(t *testing.T) {
	for _, exp := range []string{"tables1-4", "fig2", "fig3", "fig4", "errors",
		"query", "allocation", "calibration"} {
		t.Run(exp, func(t *testing.T) {
			csvDir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-books", "30", "-exp", exp, "-csv", csvDir)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("experiments -exp %s: %v\n%s", exp, err, stderr.Bytes())
			}
			checkGolden(t, exp+".golden", out)
			if csv, err := os.ReadFile(filepath.Join(csvDir, exp+".csv")); err == nil {
				checkGolden(t, exp+".csv", csv)
			} else if !os.IsNotExist(err) {
				t.Fatal(err)
			}
		})
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(g), len(w)) {
		if !bytes.Equal(g[i], w[i]) {
			t.Errorf("%s line %d differs from the golden file:\n got: %s\nwant: %s", name, i+1, g[i], w[i])
			return
		}
	}
	t.Errorf("%s has %d lines, the golden file %d", name, len(g), len(w))
}
