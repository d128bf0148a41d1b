package core

import (
	"context"
	"errors"
	"testing"

	"biasmit/internal/backend"
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
