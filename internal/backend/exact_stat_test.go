package backend_test

import (
	"context"
	"fmt"
	"testing"

	"biasmit/internal/backend"
	"biasmit/internal/circuit"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/experiments"
)

// statShots and statTVD are the sample size and agreement bound of the
// exact engine's statistical checks: at 120k shots the sampling noise of
// a 32-outcome histogram stays well inside 0.012 total variation.
const (
	statShots = 120000
	statTVD   = 0.012
)

// statNoise is the set of noise configurations the statistical checks
// cover: full noise, each ablation, and both schedule-aware modes.
var statNoise = []struct {
	name string
	opt  backend.Options
}{
	{"full-noise", backend.Options{}},
	{"no-gate-noise", backend.Options{NoGateNoise: true}},
	{"no-decay", backend.Options{NoDecay: true}},
	{"no-readout", backend.Options{NoReadoutError: true}},
	{"schedule-aware", backend.Options{ScheduleAwareDecay: true}},
	{"idle-inversion", backend.Options{ScheduleAwareDecay: true, IdleInversion: true}},
}

// simCell names one benchmark placed on one 5-qubit machine.
type simCell struct {
	dev   *device.Device
	bench string
}

// allSIMCells is the 5-qubit suite: both machines × the four benchmarks.
func allSIMCells() []simCell {
	var cells []simCell
	for _, dev := range []*device.Device{device.IBMQX2(), device.IBMQX4()} {
		for _, name := range []string{"bv-4A", "bv-4B", "qaoa-4A", "qaoa-4B"} {
			cells = append(cells, simCell{dev, name})
		}
	}
	return cells
}

// forEachSIMGroup calls fn with the physical circuit of every SIM
// inversion group of each cell.
func forEachSIMGroup(t *testing.T, cells []simCell, fn func(label string, c *circuit.Circuit, dev *device.Device)) {
	t.Helper()
	for _, cell := range cells {
		bench, err := experiments.BenchmarkByName(cell.bench)
		if err != nil {
			t.Fatal(err)
		}
		job, err := core.NewJob(bench.Circuit, core.NewMachine(cell.dev))
		if err != nil {
			t.Fatal(err)
		}
		invs, err := core.StandardInversionStrings(job.Width(), 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, inv := range invs {
			fn(fmt.Sprintf("%s/%s/inv=%s", cell.dev.Name, cell.bench, inv), job.Plan.WithInversion(inv), cell.dev)
		}
	}
}

// TestExactEngineMatchesExactDist: for every SIM group of the 5-qubit
// suite under every noise configuration, the exact engine's counts lie
// within statTVD of the closed-form output distribution it samples.
func TestExactEngineMatchesExactDist(t *testing.T) {
	t.Parallel()
	seed := int64(100)
	forEachSIMGroup(t, allSIMCells(), func(label string, c *circuit.Circuit, dev *device.Device) {
		for _, nc := range statNoise {
			want, err := backend.ExactDist(c, dev, nc.opt)
			if err != nil {
				t.Fatal(err)
			}
			opt := nc.opt
			opt.Shots = statShots
			opt.Seed = seed
			seed++
			got, err := backend.RunContext(context.Background(), c, dev, opt)
			if err != nil {
				t.Fatal(err)
			}
			if tvd := got.Dist().TVD(want); tvd > statTVD {
				t.Errorf("%s, %s: exact engine vs closed form TVD = %.4f", label, nc.name, tvd)
			}
		}
	})
}

// TestTrajectoriesMatchExactEnginePerGroup: for every SIM group of bv-4B
// on ibmqx4 and qaoa-4B on ibmqx2, at full noise, the trajectory
// engine's counts lie within statTVD of the distribution the exact
// engine samples. A trajectory per shot is the expensive engine (~6 µs a
// shot here, ~13× that under the race detector), so this check takes one
// BV and one QAOA cell rather than the whole suite, and two workers split
// each group's 120k trajectories.
func TestTrajectoriesMatchExactEnginePerGroup(t *testing.T) {
	t.Parallel()
	seed := int64(200)
	cells := []simCell{{device.IBMQX4(), "bv-4B"}, {device.IBMQX2(), "qaoa-4B"}}
	forEachSIMGroup(t, cells, func(label string, c *circuit.Circuit, dev *device.Device) {
		exact, err := backend.ExactDist(c, dev, backend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		traj, err := backend.RunContext(context.Background(), c, dev,
			backend.Options{Shots: statShots, Seed: seed, ShotsPerTrajectory: 1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		seed++
		if tvd := traj.Dist().TVD(exact); tvd > statTVD {
			t.Errorf("%s: trajectories vs exact engine TVD = %.4f", label, tvd)
		}
	})
}
