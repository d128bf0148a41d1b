package backend

import (
	"context"
	"testing"

	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/dist"
)

// The fast-path equality suite: the CDF batch sampler, pooled state, and
// compiled readout channel must produce byte-identical histograms to the
// naive trial loop (Options.NoFastPath) for every combination of seed,
// register width, noise ablation, trajectory batch size, and worker
// count. "Byte-identical" is literal — same rng stream, same comparisons,
// same counts at every outcome — not a statistical tolerance.

// fastPathCase pairs a device with a circuit valid on its coupling.
type fastPathCase struct {
	name string
	dev  *device.Device
	c    *circuit.Circuit
}

func fastPathCases() []fastPathCase {
	// ibmqx4 coupling: 1-0, 2-0, 2-1, 3-2, 3-4, 4-2.
	ghz5 := circuit.New(5, "ghz5").H(0).CX(1, 0).CX(2, 1).T(2).CX(3, 2).CX(3, 4).H(4)
	// melbourne ladder: rows 0–6 and 7–13 plus rungs (2-12, 3-11, …).
	mel := device.IBMQMelbourne()
	wide := circuit.New(14, "wide14").
		H(0).CX(0, 1).CX(1, 2).T(1).CX(2, 3).CX(3, 4).H(7).CX(7, 8).
		S(8).CX(8, 9).CX(2, 12).CX(3, 11).X(13).CX(12, 13)
	return []fastPathCase{
		{name: "ibmqx4-5q", dev: device.IBMQX4(), c: ghz5},
		{name: "melbourne-14q", dev: mel, c: wide},
	}
}

// fastPathAblations enumerates the noise-ablation corners, including the
// schedule-aware path whose idle windows consume extra rng draws.
func fastPathAblations() []struct {
	name string
	opt  Options
} {
	return []struct {
		name string
		opt  Options
	}{
		{"full-noise", Options{}},
		{"no-readout", Options{NoReadoutError: true}},
		{"no-gate-noise", Options{NoGateNoise: true}},
		{"no-decay", Options{NoDecay: true}},
		{"all-off", Options{NoReadoutError: true, NoGateNoise: true, NoDecay: true}},
		{"schedule-aware", Options{ScheduleAwareDecay: true}},
		{"idle-inversion", Options{ScheduleAwareDecay: true, IdleInversion: true}},
	}
}

// runBothPaths executes opt with the fast path and with NoFastPath and
// returns (naive, fast).
func runBothPaths(t *testing.T, fc fastPathCase, opt Options) (*dist.Counts, *dist.Counts) {
	t.Helper()
	opt.NoFastPath = true
	naive, err := RunContext(context.Background(), fc.c, fc.dev, opt)
	if err != nil {
		t.Fatalf("naive path: %v", err)
	}
	opt.NoFastPath = false
	fast, err := RunContext(context.Background(), fc.c, fc.dev, opt)
	if err != nil {
		t.Fatalf("fast path: %v", err)
	}
	return naive, fast
}

// assertSameCounts fails unless want and got are byte-identical
// histograms: same total, same support, same count at every outcome.
func assertSameCounts(t *testing.T, label string, want, got *dist.Counts) {
	t.Helper()
	if want.Total() != got.Total() {
		t.Fatalf("%s: totals differ: naive %d, fast %d", label, want.Total(), got.Total())
	}
	wantOut, gotOut := want.Outcomes(), got.Outcomes()
	if len(wantOut) != len(gotOut) {
		t.Fatalf("%s: support sizes differ: naive %d, fast %d", label, len(wantOut), len(gotOut))
	}
	for _, o := range wantOut {
		if want.Get(o) != got.Get(o) {
			t.Fatalf("%s: counts differ at %s: naive %d, fast %d", label, o, want.Get(o), got.Get(o))
		}
	}
}

// TestFastPathMatchesNaive is the tentpole equality sweep: every (device,
// ablation, seed, batch size) cell, sequential. Besides the shared cases
// it runs a basis preparation of ibmqx4's qubits 1 and 2: the fast path
// simulates only those two, while the readout channel still sees all
// five, with crosstalk triggered by qubit 1 and triggers 0, 3 and 4 left
// untouched.
func TestFastPathMatchesNaive(t *testing.T) {
	cases := append(fastPathCases(), fastPathCase{
		name: "ibmqx4-prep12", dev: device.IBMQX4(), c: circuit.New(5, "prep12").X(1).X(2),
	})
	for _, fc := range cases {
		// The naive oracle's per-shot linear scan makes wide registers
		// expensive; fewer shots there keep the sweep inside tier-1 time.
		shots := 400
		if fc.dev.NumQubits > 8 {
			shots = 150
		}
		for _, ab := range fastPathAblations() {
			for seed := int64(1); seed <= 3; seed++ {
				// Batch 1 exercises the linear-scan special case, 7 and 32
				// the CDF sampler with and without short final batches (the
				// zero default resolves to one of these widths' values).
				for _, batch := range []int{1, 7, 32} {
					opt := ab.opt
					opt.Shots = shots
					opt.Seed = seed
					opt.ShotsPerTrajectory = batch
					naive, fast := runBothPaths(t, fc, opt)
					label := fc.name + "/" + ab.name
					assertSameCounts(t, label, naive, fast)
				}
			}
		}
	}
}

// TestFastPathMatchesNaiveParallel repeats the sweep through runParallel:
// worker seed derivation and chunk splitting are shared code, so any
// divergence here isolates to per-worker runShots state.
func TestFastPathMatchesNaiveParallel(t *testing.T) {
	for _, fc := range fastPathCases() {
		for _, ab := range fastPathAblations() {
			for _, workers := range []int{2, 3} {
				opt := ab.opt
				opt.Shots = 301 // odd: uneven chunk split
				opt.Seed = 7
				opt.Workers = workers
				opt.ShotsPerTrajectory = 7
				naive, fast := runBothPaths(t, fc, opt)
				label := fc.name + "/" + ab.name
				assertSameCounts(t, label, naive, fast)
			}
		}
	}
}

// TestFastPathBatchBoundary pins the remainder handling: a shot budget
// that is not a multiple of the batch leaves a final short batch, which
// must reset the sampler and consume the same stream as the naive loop.
func TestFastPathBatchBoundary(t *testing.T) {
	fc := fastPathCases()[1] // 14q: batch sampler active
	for _, shots := range []int{1, 31, 32, 33, 65} {
		opt := Options{Shots: shots, Seed: 11, ShotsPerTrajectory: 32}
		naive, fast := runBothPaths(t, fc, opt)
		assertSameCounts(t, fc.name, naive, fast)
	}
}

// TestFastPathDeterministicAcrossRuns guards the pooling: buffers handed
// back by one run must not leak state into the next (Reset on acquire),
// so back-to-back identical runs stay byte-identical.
func TestFastPathDeterministicAcrossRuns(t *testing.T) {
	fc := fastPathCases()[1]
	opt := Options{Shots: 500, Seed: 5, ShotsPerTrajectory: 16}
	first, err := RunContext(context.Background(), fc.c, fc.dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := RunContext(context.Background(), fc.c, fc.dev, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCounts(t, "repeat", first, again)
	}
}
