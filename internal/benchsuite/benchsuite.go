// Package benchsuite defines the hot-path micro-benchmarks shared by
// the go-test benchmarks (bench_fastpath_test.go at the repo root) and
// the regression harness binary (cmd/bench). Keeping the bodies here
// means the numbers CI gates on and the numbers `go test -bench` prints
// come from the same code.
//
// The suite measures the three layers the PR 4 fast path optimizes —
// measurement sampling, the backend trial loop, and the readout
// channel — each in its fast and naive form, so every recorded figure
// of merit is a same-binary A/B comparison.
package benchsuite

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"biasmit/internal/backend"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/quantum"
)

// Widths is the register sweep of the RunShots and Sample benches.
var Widths = []int{4, 8, 12, 16}

// shotsPerIteration is the trial budget one benchmark iteration runs —
// large enough that per-run setup (readout compilation, pool warm-up)
// amortizes out, as it does in real experiments.
const shotsPerIteration = 16384

// samplingBatch is the shots-per-trajectory of the canonical RunShots
// bench: the sampling-bound shape of characterization workloads, where
// thousands of shots are drawn from each prepared state (ESCT samples
// its whole budget from one superposition; brute-force RBMS draws the
// per-state budget from each basis preparation). This is the regime the
// CDF sampler exists for. The gate-simulation-bound default trial loop
// (batch 32) is measured separately by RunShotsTrialLoop.
const samplingBatch = 4096

// Device returns the deterministic synthetic machine the suite runs on:
// a line of n qubits with correlated readout on two couplings, so the
// compiled readout channel's correlation folding is on the measured
// path.
func Device(n int) *device.Device {
	d, err := device.Synthetic(device.SyntheticSpec{
		NumQubits: n,
		Topology:  "line",
		Crosstalk: 2,
		Seed:      1,
	})
	if err != nil {
		panic(err)
	}
	return d
}

// Circuit returns the workload: a GHZ-style entangling chain with a
// sprinkle of one-qubit gates, valid on the line coupling at any width.
func Circuit(n int) *circuit.Circuit {
	c := circuit.New(n, fmt.Sprintf("bench-%dq", n)).H(0)
	for q := 0; q+1 < n; q++ {
		c.CX(q, q+1)
		if q%3 == 1 {
			c.T(q)
		}
	}
	return c.H(n - 1)
}

// RunShots benchmarks the backend end to end (trajectories, sampling,
// readout corruption) at the given width in the sampling-bound
// characterization shape (see samplingBatch); naive selects the
// pre-optimization loop via Options.NoFastPath.
func RunShots(b *testing.B, width int, naive bool) {
	benchRun(b, backend.Options{
		Shots:              shotsPerIteration,
		Seed:               17,
		ShotsPerTrajectory: samplingBatch,
		NoFastPath:         naive,
	}, width)
}

// RunShotsTrialLoop benchmarks the default experiment trial loop (batch
// 32 beyond 8 qubits, 1 below), where gate simulation dominates: the
// fast path's win here is allocations, not wall clock.
func RunShotsTrialLoop(b *testing.B, width int, naive bool) {
	benchRun(b, backend.Options{
		Shots:      shotsPerIteration / 8,
		Seed:       17,
		NoFastPath: naive,
	}, width)
}

func benchRun(b *testing.B, opt backend.Options, width int) {
	dev := Device(width)
	c := Circuit(width)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backend.RunContext(context.Background(), c, dev, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(opt.Shots), "shots/op")
}

// RunShotsParallel is RunShots across 4 workers — the configuration the
// orchestration layers actually run — exercising per-worker pool churn.
func RunShotsParallel(b *testing.B, width int, naive bool) {
	benchRun(b, backend.Options{
		Shots:              shotsPerIteration,
		Seed:               17,
		Workers:            4,
		ShotsPerTrajectory: samplingBatch,
		NoFastPath:         naive,
	}, width)
}

// Sample benchmarks one measurement draw from a fixed superposition:
// the O(2^n) linear scan against the CDF binary search (whose O(2^n)
// prefix build happens once, outside the timed loop, as it does once
// per trajectory batch in the backend).
func Sample(b *testing.B, width int, cdf bool) {
	state := Circuit(width).Simulate()
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	if cdf {
		sampler := quantum.NewSampler(state)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sampler.Sample(rng)
		}
		return
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state.Sample(rng)
	}
}

// ReadoutApply benchmarks one readout corruption of a fixed outcome:
// the per-shot recomputing channel against the compiled thresholds.
func ReadoutApply(b *testing.B, compiled bool) {
	dev := Device(16)
	model := dev.ReadoutModel()
	rng := rand.New(rand.NewSource(5))
	out := Circuit(16).Simulate().Sample(rng)
	b.ReportAllocs()
	if compiled {
		cm := model.Compile()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cm.Apply(out, rng)
		}
		return
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Apply(out, rng)
	}
}

// Verify cross-checks the two paths outside the benchmark loop: cmd/bench
// refuses to record numbers for paths that disagree, so a stale baseline
// can never hide a correctness break behind a performance win. Both runs
// are pinned to one shot per trajectory: at small widths the default
// would put the fast run on the exact engine, whose stream differs.
//
// Besides the suite's own circuit, which touches every qubit, it checks
// a sparse one: Circuit(width/2) placed on the middle of the line, which
// the fast path simulates on a compacted width/2-qubit register while
// the naive path evolves all width qubits, and whose outcomes both read
// through the device's correlated readout channel. No benchmark row runs
// it.
func Verify(width int) error {
	dev := Device(width)
	layout := make([]int, width/2)
	for q := range layout {
		layout[q] = q + width/4
	}
	for _, c := range []*circuit.Circuit{Circuit(width), Circuit(width/2).Remap(layout, width)} {
		run := func(naive bool) (*dist.Counts, error) {
			return backend.RunContext(context.Background(), c, dev, backend.Options{
				Shots: 512, Seed: 3, ShotsPerTrajectory: 1, NoFastPath: naive,
			})
		}
		naive, err := run(true)
		if err != nil {
			return err
		}
		fast, err := run(false)
		if err != nil {
			return err
		}
		if naive.Total() != fast.Total() {
			return fmt.Errorf("%s on %d qubits: totals differ: naive %d, fast %d", c.Name, width, naive.Total(), fast.Total())
		}
		for _, o := range naive.Outcomes() {
			if naive.Get(o) != fast.Get(o) {
				return fmt.Errorf("%s on %d qubits: counts differ at %s: naive %d, fast %d",
					c.Name, width, o, naive.Get(o), fast.Get(o))
			}
		}
	}
	return nil
}
