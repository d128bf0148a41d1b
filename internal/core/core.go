// Package core implements the paper's contribution: Invert-and-Measure
// and its two policies.
//
// Invert-and-Measure (paper §5.1) transforms the state about to be
// measured by applying X gates according to an inversion string, performs
// the measurement in the transformed basis, and XORs the classical result
// with the same string to restore program semantics. Because measurement
// error is state-dependent, choosing inversion strings well moves
// measurements from weak basis states into strong ones.
//
//   - SIM, Static Invert-and-Measure (§5.2-5.3), splits the trial budget
//     across a fixed set of inversion strings — by default the four
//     strings all-zeros, all-ones, and the two alternating patterns —
//     and merges the post-corrected groups, averaging the error over
//     measurement modes.
//   - AIM, Adaptive Invert-and-Measure (§6), profiles the machine's
//     Relative Basis Measurement Strength (RBMS), runs SIM-style canary
//     trials to shortlist likely outputs, and spends the remaining budget
//     on inversion strings that map each candidate onto the machine's
//     strongest state.
//
// The package operates purely above the transpiler: inversion strings
// become X gates on the physical qubits holding the logical outputs, and
// all statistics flow through logical-register histograms.
package core

import (
	"context"
	"fmt"

	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/orchestrate"
	"biasmit/internal/transpile"
)

// Machine bundles a device model with the backend options every run on
// it should use (noise ablations, trajectory batching). Shots and Seed in
// Opt are ignored; they are chosen per call.
type Machine struct {
	Device *device.Device
	Opt    backend.Options
	// Workers bounds how many independent circuit executions (SIM/AIM
	// groups, profiler state preparations, AWCT windows) run
	// concurrently on this machine. Zero selects GOMAXPROCS; one forces
	// sequential execution. Because every group's seed is derived from
	// (base seed, group index) before submission, results are
	// bit-identical across worker counts — unlike Opt.Workers, which
	// repartitions the random streams inside a single run.
	Workers int
	// Run, when set, replaces backend.RunContext for every circuit
	// execution on this machine. This is where the resilience stack
	// plugs in: a *resilient.Executor (optionally wrapping a chaos fault
	// injector) makes every SIM/AIM group, profiler preparation, and
	// baseline run on this machine retry transient failures
	// independently — one flaky group no longer discards its siblings'
	// finished work. Nil runs the backend directly.
	Run backend.Runner
}

// workers resolves the job-level parallelism for this machine.
func (m *Machine) workers() int { return orchestrate.Workers(m.Workers) }

// Runner resolves the execution path for this machine.
func (m *Machine) Runner() backend.Runner {
	if m.Run != nil {
		return m.Run
	}
	return backend.RunContext
}

// NewMachine returns a Machine with default (fully noisy) options.
func NewMachine(dev *device.Device) *Machine {
	return &Machine{Device: dev}
}

// Job is a logical circuit placed on a machine, ready to run under any
// inversion string. The same Job is reused across baseline, SIM, and AIM
// so that all policies execute the identical program on identical qubits
// (paper §4.3).
type Job struct {
	Machine *Machine
	Plan    *transpile.Plan
	width   int
}

// NewJob places the logical circuit c on the machine using
// variability-aware allocation.
func NewJob(c *circuit.Circuit, m *Machine) (*Job, error) {
	plan, err := transpile.Place(c, m.Device)
	if err != nil {
		return nil, fmt.Errorf("core: placing %s: %w", c.Name, err)
	}
	return &Job{Machine: m, Plan: plan, width: c.NumQubits}, nil
}

// NewJobWithLayout places c on explicitly chosen physical qubits.
func NewJobWithLayout(c *circuit.Circuit, m *Machine, layout []int) (*Job, error) {
	plan, err := transpile.PlaceWithLayout(c, m.Device, layout)
	if err != nil {
		return nil, fmt.Errorf("core: placing %s: %w", c.Name, err)
	}
	return &Job{Machine: m, Plan: plan, width: c.NumQubits}, nil
}

// Width returns the logical output width of the job.
func (j *Job) Width() int { return j.width }

// RunWithInversion executes the job for the given number of trials with
// inversion string s applied before measurement, and returns the
// post-corrected logical histogram. The all-zeros string is the paper's
// standard mode; all-ones is the fully inverted mode.
func (j *Job) RunWithInversion(s bitstring.Bits, shots int, seed int64) (*dist.Counts, error) {
	return j.RunWithInversionContext(context.Background(), s, shots, seed)
}

// RunWithInversionContext is RunWithInversion with cancellation: the
// backend trial loop stops within one trajectory batch of ctx ending.
func (j *Job) RunWithInversionContext(ctx context.Context, s bitstring.Bits, shots int, seed int64) (*dist.Counts, error) {
	if s.Width() != j.width {
		return nil, fmt.Errorf("core: inversion string width %d for %d-qubit job", s.Width(), j.width)
	}
	opt := j.Machine.Opt
	opt.Shots = shots
	opt.Seed = seed
	raw, err := j.Machine.Runner()(ctx, j.Plan.WithInversion(s), j.Machine.Device, opt)
	if err != nil {
		return nil, err
	}
	return j.Plan.ExtractLogical(raw).XorTransform(s), nil
}

// Baseline executes the job in standard mode only — the paper's baseline
// policy with variability-aware allocation.
func (j *Job) Baseline(shots int, seed int64) (*dist.Counts, error) {
	return j.RunWithInversion(bitstring.Zeros(j.width), shots, seed)
}

// BaselineContext is Baseline with cancellation.
func (j *Job) BaselineContext(ctx context.Context, shots int, seed int64) (*dist.Counts, error) {
	return j.RunWithInversionContext(ctx, bitstring.Zeros(j.width), shots, seed)
}

// splitShots divides a trial budget into n nearly equal groups, giving
// the remainder to the earliest groups so the total is preserved.
func splitShots(shots, n int) []int {
	out := make([]int, n)
	base, rem := shots/n, shots%n
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// deriveSeed spreads per-group seeds so groups are decorrelated but the
// whole experiment stays a pure function of the caller's seed. It
// predates orchestrate.DeriveSeed and intentionally keeps its original
// (truncated-splitmix) form: changing it would shift every published
// per-group random stream in this repo.
func deriveSeed(seed int64, group int) int64 {
	x := uint64(seed) + 0x9E3779B97F4A7C15*uint64(group+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return int64(x & (1<<63 - 1))
}
