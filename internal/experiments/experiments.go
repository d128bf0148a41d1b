// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated machines. Each experiment is a pure
// function of a Config, so cmd/paperfigs, the test suite, and the
// benchmark harness all share one implementation. Every run goes to the
// backend directly unless a test sets Config.Runner, which is how the
// suite is checked under injected faults.
//
// The per-experiment index (experiment id → workload → modules → bench
// target) lives in DESIGN.md §4.
package experiments

import (
	"biasmit/internal/backend"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/orchestrate"
)

// Config controls experiment fidelity and determinism.
type Config struct {
	// Scale multiplies the paper's published trial counts. 1.0 (the
	// default) reproduces the paper's budgets; tests and quick benches
	// use smaller values.
	Scale float64
	// Seed drives every random choice; equal seeds give equal results.
	Seed int64
	// Workers bounds how many independent circuit executions run
	// concurrently, both inside each driver (benchmark × policy cells,
	// sweep points) and inside core (SIM/AIM groups, profiler states).
	// Zero selects GOMAXPROCS; one forces sequential execution. Every
	// cell's seed is derived from the cell's position before submission,
	// so results are bit-identical across worker counts.
	Workers int
	// Runner, when set, replaces backend.RunContext for every circuit
	// execution. It is the test hook through which the experiments run
	// under a retrying executor over injected faults, where their
	// rendered output must stay byte-identical.
	Runner backend.Runner
}

// workers resolves the configured parallelism.
func (c Config) workers() int {
	return orchestrate.Workers(c.Workers)
}

// scale returns the effective scale factor.
func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1.0
	}
	return c.Scale
}

// shots converts one of the paper's trial counts into this run's budget,
// with a floor that keeps split-mode policies statistically meaningful.
func (c Config) shots(paper int) int {
	s := int(float64(paper) * c.scale())
	if s < 400 {
		s = 400
	}
	return s
}

// machine builds the fully noisy machine model for a device, carrying
// the config's job-level parallelism.
func (c Config) machine(dev *device.Device) *core.Machine {
	m := core.NewMachine(dev)
	m.Workers = c.Workers
	m.Run = c.Runner
	return m
}

// readoutOnly builds a machine with only readout noise, used by the
// characterization experiments that isolate measurement error.
func (c Config) readoutOnly(dev *device.Device) *core.Machine {
	m := core.NewMachine(dev)
	m.Opt = backend.Options{NoGateNoise: true, NoDecay: true}
	m.Workers = c.Workers
	m.Run = c.Runner
	return m
}

// identityLayout returns [0, 1, …, n).
func identityLayout(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
