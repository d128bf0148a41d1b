// Command bench is the performance-regression harness: it runs the
// hot-path micro-benchmark suite (internal/benchsuite) in-process via
// testing.Benchmark, cross-checks that the fast and naive paths still
// agree before recording anything, and emits a machine-readable report
// (BENCH_PR4.json) with ns/op, allocs/op, and the fast-vs-naive figures
// of merit.
//
// Against a committed baseline (-baseline), the harness enforces the
// allocation budget: any benchmark whose allocs/op grows beyond 2× its
// baseline fails the run. Each row runs recordRuns times and keeps the
// run with the fewest allocs/op, a count that repeats where one run's
// does not. Timing deltas are reported but never block — CI machines
// are too noisy for wall-clock gates. The baseline is read before
// anything runs, and an -out naming the baseline file is refused: the
// report would overwrite the baseline it is gated against.
//
// Usage:
//
//	go run ./cmd/bench -out BENCH_PR4.json             # record
//	go run ./cmd/bench -out new.json -baseline BENCH_PR4.json  # gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"biasmit/internal/benchsuite"
)

// Result is one benchmark's recorded numbers.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// Merit is a fast-vs-naive figure of merit at one width.
type Merit struct {
	Name       string  `json:"name"`
	Speedup    float64 `json:"speedup"`     // naive ns/op ÷ fast ns/op
	AllocRatio float64 `json:"alloc_ratio"` // naive allocs/op ÷ fast allocs/op
}

// Report is the BENCH_PR4.json schema.
type Report struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go_version"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	RecordedAt string   `json:"recorded_at"`
	Benchmarks []Result `json:"benchmarks"`
	Merits     []Merit  `json:"figures_of_merit"`
}

// allocBudgetFactor is the blocking regression gate: a benchmark may not
// allocate more than this many times its baseline allocs/op.
const allocBudgetFactor = 2.0

// recordRuns is how many times each row runs. A parallel row's workers
// race one another to the backend's free list of run scratch, so
// RunShotsParallel reads a few more allocs/op in some runs than in
// others; the fewest of three is the figure that repeats.
const recordRuns = 3

func main() {
	out := flag.String("out", "BENCH_PR4.json", "path to write the report")
	baseline := flag.String("baseline", "", "committed report to gate allocs/op against (empty = record only)")
	flag.Parse()

	var base *Report
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fatalf("%v", err)
		}
		base = new(Report)
		if err := json.Unmarshal(raw, base); err != nil {
			fatalf("parsing %s: %v", *baseline, err)
		}
		bst, _ := os.Stat(*baseline)
		if ost, err := os.Stat(*out); err == nil && os.SameFile(ost, bst) {
			fatalf("-out %s names the -baseline file: the report would overwrite the baseline it is gated against", *out)
		}
	}

	// Refuse to benchmark paths that disagree: a fast wrong answer is
	// not a result worth recording.
	for _, w := range benchsuite.Widths {
		if err := benchsuite.Verify(w); err != nil {
			fatalf("fast path disagrees with naive path: %v", err)
		}
	}
	logf("fast path verified against naive path at widths %v", benchsuite.Widths)

	report := Report{
		Schema:     "biasmit-bench/1",
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
	}

	record := func(name string, fn func(b *testing.B)) Result {
		var r testing.BenchmarkResult
		for i := 0; i < recordRuns; i++ {
			if ri := testing.Benchmark(fn); i == 0 || ri.AllocsPerOp() < r.AllocsPerOp() {
				r = ri
			}
		}
		res := Result{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
		logf("%-34s %14.0f ns/op %10d allocs/op %12d B/op", name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
		report.Benchmarks = append(report.Benchmarks, res)
		return res
	}
	merit := func(name string, fast, naive Result) {
		m := Merit{Name: name, Speedup: naive.NsPerOp / fast.NsPerOp}
		if fast.AllocsPerOp > 0 {
			m.AllocRatio = float64(naive.AllocsPerOp) / float64(fast.AllocsPerOp)
		} else {
			m.AllocRatio = float64(naive.AllocsPerOp)
		}
		logf("%-34s %.2fx faster, %.1fx fewer allocs", name, m.Speedup, m.AllocRatio)
		report.Merits = append(report.Merits, m)
	}

	for _, w := range benchsuite.Widths {
		w := w
		fast := record(fmt.Sprintf("RunShots/width=%d/fast", w), func(b *testing.B) { benchsuite.RunShots(b, w, false) })
		naive := record(fmt.Sprintf("RunShots/width=%d/naive", w), func(b *testing.B) { benchsuite.RunShots(b, w, true) })
		merit(fmt.Sprintf("RunShots/width=%d", w), fast, naive)
	}
	{
		fast := record("RunShotsTrialLoop/width=16/fast", func(b *testing.B) { benchsuite.RunShotsTrialLoop(b, 16, false) })
		naive := record("RunShotsTrialLoop/width=16/naive", func(b *testing.B) { benchsuite.RunShotsTrialLoop(b, 16, true) })
		merit("RunShotsTrialLoop/width=16", fast, naive)
	}
	{
		fast := record("RunShotsParallel/width=16/fast", func(b *testing.B) { benchsuite.RunShotsParallel(b, 16, false) })
		naive := record("RunShotsParallel/width=16/naive", func(b *testing.B) { benchsuite.RunShotsParallel(b, 16, true) })
		merit("RunShotsParallel/width=16", fast, naive)
	}
	for _, w := range benchsuite.Widths {
		w := w
		fast := record(fmt.Sprintf("Sample/width=%d/cdf", w), func(b *testing.B) { benchsuite.Sample(b, w, true) })
		naive := record(fmt.Sprintf("Sample/width=%d/linear", w), func(b *testing.B) { benchsuite.Sample(b, w, false) })
		merit(fmt.Sprintf("Sample/width=%d", w), fast, naive)
	}
	record("RunExactSIM/width=5", benchsuite.RunExactSIM)
	{
		fast := record("ReadoutApply/compiled", func(b *testing.B) { benchsuite.ReadoutApply(b, true) })
		naive := record("ReadoutApply/naive", func(b *testing.B) { benchsuite.ReadoutApply(b, false) })
		merit("ReadoutApply", fast, naive)
	}

	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	logf("wrote %s (%d benchmarks)", *out, len(report.Benchmarks))

	if base != nil {
		if err := gate(*base, report); err != nil {
			fatalf("regression gate: %v", err)
		}
		logf("allocation budget holds against %s", *baseline)
	}
}

// gate compares the fresh report against the committed baseline: blocking
// on allocs/op growth past the budget factor, informational on timing.
func gate(base, fresh Report) error {
	baseBy := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseBy[r.Name] = r
	}
	var failures []string
	for _, r := range fresh.Benchmarks {
		b, ok := baseBy[r.Name]
		if !ok {
			logf("  new benchmark %s (no baseline)", r.Name)
			continue
		}
		budget := float64(b.AllocsPerOp) * allocBudgetFactor
		if b.AllocsPerOp == 0 {
			budget = 0 // a zero-alloc benchmark must stay zero-alloc
		}
		if float64(r.AllocsPerOp) > budget {
			failures = append(failures, fmt.Sprintf(
				"%s allocates %d/op, budget %.0f/op (baseline %d/op × %g)",
				r.Name, r.AllocsPerOp, budget, b.AllocsPerOp, allocBudgetFactor))
		}
		if b.NsPerOp > 0 {
			logf("  %-34s %+6.1f%% ns/op vs baseline (informational)",
				r.Name, 100*(r.NsPerOp-b.NsPerOp)/b.NsPerOp)
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			logf("  ALLOC REGRESSION: %s", f)
		}
		return fmt.Errorf("%d benchmark(s) over the allocation budget", len(failures))
	}
	return nil
}

// logf and fatalf are the harness's human-facing progress lines —
// plain stderr prints, not the daemon's structured JSON logs.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(1)
}
