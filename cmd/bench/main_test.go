package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets a test re-run this binary as the bench command itself.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRefusesOutEqualToBaseline: a report written over its own baseline
// would be gated against itself, so the command must exit non-zero
// before benchmarking anything and leave the baseline's bytes alone —
// also when the two flags spell the same file differently.
func TestRefusesOutEqualToBaseline(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	want := []byte(`{"schema":"biasmit-bench/1","benchmarks":[{"name":"RunShots/width=4/fast","ns_per_op":1,"allocs_per_op":0}]}` + "\n")
	if err := os.WriteFile(base, want, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{base, dir + "/./base.json"} {
		cmd := exec.Command(os.Args[0], "-out", out, "-baseline", base)
		cmd.Env = append(os.Environ(), "BENCH_TEST_RUN_MAIN=1")
		msg, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("-out %s -baseline %s exited 0:\n%s", out, base, msg)
		}
		if !bytes.Contains(msg, []byte("names the -baseline file")) {
			t.Fatalf("-out %s: want the refusal, got:\n%s", out, msg)
		}
		if got, err := os.ReadFile(base); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("-out %s rewrote the baseline (err %v):\n%s", out, err, got)
		}
	}
}
