// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated machines. Each experiment is a pure
// function of a Config, so cmd/paperfigs, the test suite, and the
// benchmark harness all share one implementation.
//
// The per-experiment index (experiment id → workload → modules → bench
// target) lives in DESIGN.md §4.
package experiments

import (
	"fmt"
	"os"
	"sync"
	"time"

	"biasmit/internal/backend"
	"biasmit/internal/chaos"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/orchestrate"
	"biasmit/internal/resilient"
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
	// execution — cmd/paperfigs plugs a chaos-wrapped retrying executor
	// in here via the -chaos-* flags. When nil and the BIASMIT_CHAOS_*
	// environment is set (the CI chaos job), a retrying executor over an
	// env-configured fault injector is used, so the entire experiment
	// suite runs — and must stay byte-identical — under injected faults.
	Runner backend.Runner
}

// workers resolves the configured parallelism.
func (c Config) workers() int {
	return orchestrate.Workers(c.Workers)
}

// envRunner builds the process-wide fault-injected runner from the
// BIASMIT_CHAOS_* environment, once. Nil when the environment sets no
// chaos, so the default path stays a direct backend call.
var envRunner = sync.OnceValue(func() backend.Runner {
	plan, err := chaos.FromEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: ignoring malformed chaos environment: %v\n", err)
		return nil
	}
	if !plan.Enabled() {
		return nil
	}
	// Generous retries and token backoff: the chaos CI job injects high
	// fault rates and only cares that results survive unchanged, not
	// about realistic pacing. A retry replays the identical call, so
	// every experiment assertion, calibrated against the fault-free
	// stream at the canonical seed, still holds.
	exec := resilient.New(plan.Wrap(backend.RunContext), resilient.Policy{
		MaxAttempts: 40,
		BaseDelay:   50 * time.Microsecond,
		MaxDelay:    time.Millisecond,
	})
	return exec.Run
})

// runner resolves the execution path for this config.
func (c Config) runner() backend.Runner {
	if c.Runner != nil {
		return c.Runner
	}
	if r := envRunner(); r != nil {
		return r
	}
	return backend.RunContext
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
	m.Run = c.runner()
	return m
}

// readoutOnly builds a machine with only readout noise, used by the
// characterization experiments that isolate measurement error.
func (c Config) readoutOnly(dev *device.Device) *core.Machine {
	m := core.NewMachine(dev)
	m.Opt = backend.Options{NoGateNoise: true, NoDecay: true}
	m.Workers = c.Workers
	m.Run = c.runner()
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
