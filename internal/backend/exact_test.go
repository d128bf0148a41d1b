package backend

import (
	"context"
	"errors"
	"testing"
	"time"

	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/dist"
)

// ghzX4 is a 5-qubit GHZ chain on ibmqx4's coupling (1-0, 2-0, 2-1, 3-2,
// 3-4, 4-2).
func ghzX4() *circuit.Circuit {
	return circuit.New(5, "ghz-x4").H(0).CX(1, 0).CX(2, 1).CX(3, 2).CX(3, 4)
}

func TestExactDistValidation(t *testing.T) {
	dev := device.IBMQX2()
	if _, err := ExactDist(circuit.New(3, "small"), dev, Options{}); err == nil {
		t.Error("register mismatch accepted")
	}
	uncoupled := circuit.New(5, "bad").CX(0, 4)
	if _, err := ExactDist(uncoupled, dev, Options{}); err == nil {
		t.Error("uncoupled CNOT accepted")
	}
	if _, err := ExactDist(circuit.New(14, "wide"), device.IBMQMelbourne(), Options{}); err == nil {
		t.Error("14-qubit exact distribution accepted")
	}
}

func TestTrajectoriesConvergeToExactChannel(t *testing.T) {
	// The central cross-validation: the stochastic trajectory engine must
	// converge to the exact density-matrix evolution on a fully noisy
	// workload (gates + decay + biased readout + crosstalk).
	dev := device.IBMQX4()
	c := ghzX4()
	exact, err := ExactDist(c, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := RunContext(context.Background(), c, dev, Options{Shots: 120000, Seed: 31, ShotsPerTrajectory: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tvd := counts.Dist().TVD(exact); tvd > 0.012 {
		t.Errorf("trajectory vs exact TVD = %v", tvd)
	}
}

func TestTrajectoriesConvergeOnBVKernel(t *testing.T) {
	// A 2-bit Bernstein–Vazirani kernel on ibmqx2's 2-4 and 3-4 couplings,
	// with qubit 4 as the ancilla.
	dev := device.IBMQX2()
	c := circuit.New(5, "mini-bv")
	c.X(4).H(4).H(2).H(3)
	c.CX(2, 4).CX(3, 4)
	c.H(2).H(3).H(4)
	exact, err := ExactDist(c, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := RunContext(context.Background(), c, dev, Options{Shots: 120000, Seed: 37, ShotsPerTrajectory: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tvd := counts.Dist().TVD(exact); tvd > 0.012 {
		t.Errorf("trajectory vs exact TVD = %v", tvd)
	}
}

// sameCounts reports whether a and b are byte-identical histograms.
func sameCounts(a, b *dist.Counts) bool {
	if a.Total() != b.Total() || len(a.Outcomes()) != len(b.Outcomes()) {
		return false
	}
	for _, o := range a.Outcomes() {
		if a.Get(o) != b.Get(o) {
			return false
		}
	}
	return true
}

// TestEngineSelection pins RunContext's engine choice by its streams. At
// 8 qubits or fewer the default trajectory batch is one shot, so a run
// left on trajectories is byte-identical to the same run with an
// explicit ShotsPerTrajectory of 1, and the NoFastPath loop is
// stream-identical to both; a run on the exact engine is byte-identical
// to runExact and differs from the trajectory stream.
func TestEngineSelection(t *testing.T) {
	ctx := context.Background()
	qx4 := device.IBMQX4()
	mel := fastPathCases()[1]
	exactOf := func(c *circuit.Circuit, dev *device.Device, opt Options) *dist.Counts {
		p, err := placeNoise(c, dev, opt)
		if err != nil {
			t.Fatal(err)
		}
		counts, err := runExact(ctx, p, opt, dev.ReadoutModel().Compile())
		if err != nil {
			t.Fatal(err)
		}
		return counts
	}
	cases := []struct {
		name  string
		c     *circuit.Circuit
		dev   *device.Device
		opt   Options
		exact bool
		// ref, for a trajectory choice, is the same run pinned to
		// trajectories explicitly.
		ref Options
	}{
		{name: "5 qubits at 3000 shots: exact", c: ghzX4(), dev: qx4,
			opt: Options{Shots: 3000, Seed: 3}, exact: true},
		{name: "5 qubits at 32 shots: exact", c: ghzX4(), dev: qx4,
			opt: Options{Shots: 32, Seed: 3}, exact: true},
		{name: "5 qubits at 31 shots: trajectories", c: ghzX4(), dev: qx4,
			opt: Options{Shots: 31, Seed: 3}, ref: Options{Shots: 31, Seed: 3, ShotsPerTrajectory: 1}},
		{name: "melbourne: trajectories", c: mel.c, dev: mel.dev,
			opt: Options{Shots: 3000, Seed: 3}, ref: Options{Shots: 3000, Seed: 3, ShotsPerTrajectory: 32}},
		{name: "explicit ShotsPerTrajectory: trajectories", c: ghzX4(), dev: qx4,
			opt: Options{Shots: 3000, Seed: 3, ShotsPerTrajectory: 1},
			ref: Options{Shots: 3000, Seed: 3, ShotsPerTrajectory: 1, NoFastPath: true}},
		{name: "NoFastPath: naive loop", c: ghzX4(), dev: qx4,
			opt: Options{Shots: 3000, Seed: 3, NoFastPath: true}, ref: Options{Shots: 3000, Seed: 3, ShotsPerTrajectory: 1}},
		{name: "Workers do not change the exact choice", c: ghzX4(), dev: qx4,
			opt: Options{Shots: 3000, Seed: 3, Workers: 4}, exact: true},
		{name: "noise switches do not change the exact choice", c: ghzX4(), dev: qx4,
			opt: Options{Shots: 3000, Seed: 3, NoGateNoise: true, ScheduleAwareDecay: true, IdleInversion: true}, exact: true},
	}
	for _, tc := range cases {
		got, err := RunContext(ctx, tc.c, tc.dev, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Total() != tc.opt.Shots {
			t.Fatalf("%s: total %d, want %d", tc.name, got.Total(), tc.opt.Shots)
		}
		if !tc.exact {
			ref, err := RunContext(ctx, tc.c, tc.dev, tc.ref)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCounts(got, ref) {
				t.Errorf("%s: counts differ from the explicit trajectory run", tc.name)
			}
			continue
		}
		if !sameCounts(got, exactOf(tc.c, tc.dev, tc.opt)) {
			t.Errorf("%s: counts differ from the exact engine's", tc.name)
		}
		pinned := tc.opt
		pinned.ShotsPerTrajectory = 1
		traj, err := RunContext(ctx, tc.c, tc.dev, pinned)
		if err != nil {
			t.Fatal(err)
		}
		if sameCounts(got, traj) {
			t.Errorf("%s: counts equal the trajectory stream; the exact engine did not run", tc.name)
		}
	}
}

// TestExactRunAllocsIndependentOfShots: sampling allocates nothing per
// shot, so a 100k-shot exact run allocates exactly what a 1k-shot run
// does. The circuit spreads its output over all 32 outcomes, so both
// histograms hold the same number of entries.
func TestExactRunAllocsIndependentOfShots(t *testing.T) {
	dev := device.IBMQX4()
	c := circuit.New(5, "h-all").H(0).H(1).H(2).H(3).H(4)
	allocs := func(shots int) float64 {
		return testing.AllocsPerRun(5, func() {
			counts, err := RunContext(context.Background(), c, dev, Options{Shots: shots, Seed: 9})
			if err != nil || len(counts.Outcomes()) != 32 {
				t.Fatalf("shots %d: %v, %d outcomes", shots, err, len(counts.Outcomes()))
			}
		})
	}
	if small, large := allocs(1000), allocs(100000); small != large {
		t.Errorf("exact run allocates %v at 1k shots but %v at 100k", small, large)
	}
}

// TestExactRunStopsOnCancel: a context that ends mid-run stops a
// 2^20-shot exact run with its error. The engine checks ctx only while
// it evolves and samples, so a run that ignored the deadline would
// return counts instead.
func TestExactRunStopsOnCancel(t *testing.T) {
	dev := device.IBMQX4()
	opt := Options{Shots: 1 << 20, Seed: 4}
	if !opt.useExact(dev.NumQubits) {
		t.Fatal("run is not on the exact engine")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, ghzX4(), dev, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: error %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := RunContext(ctx, ghzX4(), dev, opt); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want context.DeadlineExceeded", err)
	}
}
