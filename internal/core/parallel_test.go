package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"biasmit/internal/backend"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/kernels"
)

// sameCounts reports whether two histograms agree exactly on every
// outcome in either.
func sameCounts(t *testing.T, label string, a, b *dist.Counts) {
	t.Helper()
	if a.Total() != b.Total() {
		t.Fatalf("%s: totals %d vs %d", label, a.Total(), b.Total())
	}
	for _, o := range a.Outcomes() {
		if a.Get(o) != b.Get(o) {
			t.Fatalf("%s: outcome %v count %d vs %d", label, o, a.Get(o), b.Get(o))
		}
	}
	for _, o := range b.Outcomes() {
		if a.Get(o) != b.Get(o) {
			t.Fatalf("%s: outcome %v count %d vs %d", label, o, a.Get(o), b.Get(o))
		}
	}
}

// TestBruteForceParallelMatchesSequential is the tentpole determinism
// guarantee: at a fixed seed, the parallel profiler produces a profile
// bit-identical to the sequential one, at every worker count.
func TestBruteForceParallelMatchesSequential(t *testing.T) {
	const seed, shots = 41, 300
	profile := func(workers int) RBMS {
		m := readoutOnlyMachine(device.IBMQX2())
		m.Workers = workers
		j, err := NewJob(kernels.BasisPrep(bs("10110")), m)
		if err != nil {
			t.Fatal(err)
		}
		rbms, err := j.Profiler().BruteForceContext(context.Background(), shots, seed)
		if err != nil {
			t.Fatal(err)
		}
		return rbms
	}
	want := profile(1)
	for _, workers := range []int{2, 4, 8} {
		got := profile(workers)
		for i := range want.Strength {
			if got.Strength[i] != want.Strength[i] {
				t.Fatalf("workers=%d state %d strength %v, want %v",
					workers, i, got.Strength[i], want.Strength[i])
			}
		}
	}
}

func TestSIMParallelMatchesSequential(t *testing.T) {
	const seed, shots = 7, 2000
	run := func(workers int) *SIMResult {
		m := readoutOnlyMachine(device.IBMQX4())
		m.Workers = workers
		j, err := NewJob(kernels.BasisPrep(bs("0110")), m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SIM4Context(context.Background(), j, shots, seed)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	got := run(8)
	sameCounts(t, "merged", want.Merged, got.Merged)
	if len(want.PerMode) != len(got.PerMode) {
		t.Fatalf("per-mode lengths %d vs %d", len(want.PerMode), len(got.PerMode))
	}
	for i := range want.PerMode {
		sameCounts(t, "per-mode", want.PerMode[i], got.PerMode[i])
	}
}

func TestAIMParallelMatchesSequential(t *testing.T) {
	const seed, shots = 19, 2400
	run := func(workers int) *AIMResult {
		m := readoutOnlyMachine(device.IBMQX2())
		m.Workers = workers
		j, err := NewJob(kernels.BasisPrep(bs("01011")), m)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		rbms, err := j.Profiler().BruteForceContext(ctx, 200, deriveSeed(seed, 6000))
		if err != nil {
			t.Fatal(err)
		}
		res, err := AIMContext(ctx, j, rbms, AIMConfig{}, shots, seed)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	got := run(8)
	sameCounts(t, "merged", want.Merged, got.Merged)
	sameCounts(t, "canary", want.Canary, got.Canary)
	if len(want.Candidates) != len(got.Candidates) {
		t.Fatalf("candidate counts %d vs %d", len(want.Candidates), len(got.Candidates))
	}
	for i := range want.Candidates {
		if want.Candidates[i].Output != got.Candidates[i].Output {
			t.Fatalf("candidate %d output %v vs %v",
				i, want.Candidates[i].Output, got.Candidates[i].Output)
		}
	}
}

func TestAWCTParallelMatchesSequential(t *testing.T) {
	const seed, shots = 61, 500
	profile := func(workers int) RBMS {
		m := readoutOnlyMachine(device.IBMQX2())
		m.Workers = workers
		j, err := NewJob(kernels.BasisPrep(bs("00000")), m)
		if err != nil {
			t.Fatal(err)
		}
		rbms, err := j.Profiler().AWCTContext(context.Background(), 3, 1, shots, seed)
		if err != nil {
			t.Fatal(err)
		}
		return rbms
	}
	want := profile(1)
	got := profile(8)
	for i := range want.Strength {
		if got.Strength[i] != want.Strength[i] {
			t.Fatalf("state %d strength %v, want %v", i, got.Strength[i], want.Strength[i])
		}
	}
}

func TestProfilerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := readoutOnlyMachine(device.IBMQX2())
	j, err := NewJob(kernels.BasisPrep(bs("00000")), m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Profiler().BruteForceContext(ctx, 100, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("BruteForceContext err = %v, want context.Canceled", err)
	}
	if _, err := SIMContext(ctx, j, nil, 0, 1); err == nil {
		t.Fatal("SIMContext accepted an empty string set")
	}
	if _, err := SIM4Context(ctx, j, 400, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("SIM4Context err = %v, want context.Canceled", err)
	}
	if _, err := AIMContext(ctx, j, RBMS{}, AIMConfig{}, 400, 1); err == nil {
		t.Fatal("AIMContext accepted a zero RBMS")
	}
}

// TestBruteForceBudgetGuard covers the satellite overflow fix: shot
// budgets that overflow when multiplied by the state count must surface
// as a typed BudgetError instead of silently wrapping.
func TestBruteForceBudgetGuard(t *testing.T) {
	m := readoutOnlyMachine(device.IBMQX2())
	j, err := NewJob(kernels.BasisPrep(bs("00000")), m)
	if err != nil {
		t.Fatal(err)
	}
	var be *backend.BudgetError
	if _, err := j.Profiler().BruteForceContext(context.Background(), backend.MaxShots, 1); !errors.As(err, &be) {
		t.Fatalf("overflowing brute-force budget err = %v, want *backend.BudgetError", err)
	}
	if _, err := j.Profiler().BruteForceContext(context.Background(), 0, 1); !errors.As(err, &be) {
		t.Fatalf("zero brute-force budget err = %v, want *backend.BudgetError", err)
	}
	if _, err := j.Profiler().AWCTContext(context.Background(), 3, 1, backend.MaxShots, 1); !errors.As(err, &be) {
		t.Fatalf("overflowing AWCT budget err = %v, want *backend.BudgetError", err)
	}
}

// TestSharedEvolutionMatchesLoneGroups runs SIM and AIM with their groups
// sharing one evolution of the placed program (the default runner, at
// Workers 4) and with every group evolving alone (a runner that drops the
// call's context, and with it the shared prefix, at Workers 1). The
// results are byte-identical on the exact engine's groups, on the
// trajectory groups of a small budget and under trajectory-only options.
func TestSharedEvolutionMatchesLoneGroups(t *testing.T) {
	alone := func(_ context.Context, c *circuit.Circuit, dev *device.Device, opt backend.Options) (*dist.Counts, error) {
		return backend.RunContext(context.Background(), c, dev, opt)
	}
	opts := []backend.Options{
		{},
		{NoReadoutError: true},
		{ScheduleAwareDecay: true},
		{ScheduleAwareDecay: true, IdleInversion: true},
		{ShotsPerTrajectory: 32},
	}
	circuits := []*circuit.Circuit{kernels.GHZ(4), kernels.BV("bv-0111", bs("0111")).Circuit}
	for _, dev := range []*device.Device{device.IBMQX2(), device.IBMQX4()} {
		for _, c := range circuits {
			for i, opt := range opts {
				for _, shots := range []int{3000, 512} {
					run := func(workers int, r backend.Runner) (*SIMResult, *AIMResult) {
						m := NewMachine(dev)
						m.Opt = opt
						m.Workers = workers
						m.Run = r
						j, err := NewJob(c, m)
						if err != nil {
							t.Fatal(err)
						}
						strength := make([]float64, 1<<uint(j.Width()))
						for s := range strength {
							strength[s] = 1 + float64(s%3)
						}
						rbms, err := NewRBMS(j.Width(), strength)
						if err != nil {
							t.Fatal(err)
						}
						sim, err := SIM4Context(context.Background(), j, shots, 23)
						if err != nil {
							t.Fatal(err)
						}
						aim, err := AIMContext(context.Background(), j, rbms, AIMConfig{}, shots, 29)
						if err != nil {
							t.Fatal(err)
						}
						return sim, aim
					}
					sim, aim := run(4, nil)
					wantSIM, wantAIM := run(1, alone)
					label := fmt.Sprintf("%s/%s/options %d/%d shots", dev.Name, c.Name, i, shots)
					sameCounts(t, label+"/sim", wantSIM.Merged, sim.Merged)
					sameCounts(t, label+"/aim", wantAIM.Merged, aim.Merged)
				}
			}
		}
	}
}
