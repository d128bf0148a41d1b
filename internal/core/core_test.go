package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"biasmit/internal/bitstring"
	"biasmit/internal/device"
	"biasmit/internal/kernels"
	"biasmit/internal/metrics"
)

func bs(s string) bitstring.Bits { return bitstring.MustParse(s) }

// noiselessMachine disables every noise process for semantics tests.
func noiselessMachine(dev *device.Device) *Machine {
	m := NewMachine(dev)
	m.Opt.NoGateNoise = true
	m.Opt.NoDecay = true
	m.Opt.NoReadoutError = true
	return m
}

// readoutOnlyMachine keeps the readout channel but disables gate noise
// and decay, isolating the effect the paper characterizes.
func readoutOnlyMachine(dev *device.Device) *Machine {
	m := NewMachine(dev)
	m.Opt.NoGateNoise = true
	m.Opt.NoDecay = true
	return m
}

func pstOf(counts interface {
	Get(bitstring.Bits) int
	Total() int
}, b bitstring.Bits) float64 {
	return float64(counts.Get(b)) / float64(counts.Total())
}

func TestSplitShots(t *testing.T) {
	cases := []struct {
		shots, n int
		want     []int
	}{
		{10, 2, []int{5, 5}},
		{10, 4, []int{3, 3, 2, 2}},
		{7, 4, []int{2, 2, 2, 1}},
		{4, 4, []int{1, 1, 1, 1}},
	}
	for _, c := range cases {
		got := splitShots(c.shots, c.n)
		sum := 0
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("splitShots(%d,%d) = %v, want %v", c.shots, c.n, got, c.want)
				break
			}
			sum += got[i]
		}
		if sum != c.shots {
			t.Errorf("splitShots(%d,%d) sums to %d", c.shots, c.n, sum)
		}
	}
}

func TestQuickSplitShotsInvariants(t *testing.T) {
	f := func(shotsRaw uint16, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		shots := int(shotsRaw) + n
		got := splitShots(shots, n)
		sum, min, max := 0, shots, 0
		for _, g := range got {
			sum += g
			if g < min {
				min = g
			}
			if g > max {
				max = g
			}
		}
		return sum == shots && max-min <= 1 && min >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(83))}); err != nil {
		t.Error(err)
	}
}

func TestRunWithInversionNoiselessIdentity(t *testing.T) {
	m := noiselessMachine(device.IBMQX4())
	job, err := NewJob(kernels.BasisPrep(bs("01101")), m)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"00000", "11111", "10101", "01010", "11000"} {
		counts, err := job.RunWithInversion(bs(s), 500, 77)
		if err != nil {
			t.Fatal(err)
		}
		if got := counts.Get(bs("01101")); got != 500 {
			t.Errorf("inversion %s: corrected count = %d, want 500", s, got)
		}
	}
}

func TestRunWithInversionWidthMismatch(t *testing.T) {
	m := noiselessMachine(device.IBMQX2())
	job, err := NewJob(kernels.BasisPrep(bs("010")), m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.RunWithInversion(bs("0101"), 10, 1); err == nil {
		t.Error("width mismatch accepted")
	}
}

func TestFigure1InvertAndMeasure(t *testing.T) {
	// Paper Fig 1 on IBM-Q5: PST(00000) ≈ 0.84 > inverted-11111 ≈ 0.78 >
	// direct-11111 ≈ 0.62. We assert the ordering and rough magnitudes.
	m := NewMachine(device.IBMQX4())
	const shots = 16000

	jobZeros, err := NewJobWithLayout(kernels.BasisPrep(bs("00000")), m, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	cZeros, err := jobZeros.Baseline(shots, 101)
	if err != nil {
		t.Fatal(err)
	}
	pstZeros := pstOf(cZeros, bs("00000"))

	jobOnes, err := NewJobWithLayout(kernels.BasisPrep(bs("11111")), m, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	cOnes, err := jobOnes.Baseline(shots, 102)
	if err != nil {
		t.Fatal(err)
	}
	pstOnes := pstOf(cOnes, bs("11111"))

	cInv, err := jobOnes.RunWithInversion(bs("11111"), shots, 103)
	if err != nil {
		t.Fatal(err)
	}
	pstInv := pstOf(cInv, bs("11111"))

	if !(pstZeros > pstInv && pstInv > pstOnes) {
		t.Errorf("Fig 1 ordering violated: zeros=%.3f inverted=%.3f ones=%.3f", pstZeros, pstInv, pstOnes)
	}
	if pstZeros < 0.70 || pstZeros > 0.95 {
		t.Errorf("PST(00000) = %.3f, paper shows ≈ 0.84", pstZeros)
	}
	if pstOnes > 0.70 {
		t.Errorf("PST(11111) = %.3f, paper shows ≈ 0.62", pstOnes)
	}
}

func TestStandardInversionStrings(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		strings, err := StandardInversionStrings(5, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(strings) != k {
			t.Fatalf("k=%d returned %d strings", k, len(strings))
		}
		seen := make(map[bitstring.Bits]bool)
		for _, s := range strings {
			if s.Width() != 5 {
				t.Errorf("k=%d: width %d", k, s.Width())
			}
			if seen[s] {
				t.Errorf("k=%d: duplicate string %v", k, s)
			}
			seen[s] = true
		}
	}
	strings4, _ := StandardInversionStrings(5, 4)
	want := []string{"00000", "11111", "10101", "01010"}
	for i, w := range want {
		if strings4[i] != bs(w) {
			t.Errorf("4-mode strings = %v", strings4)
			break
		}
	}
	if _, err := StandardInversionStrings(5, 3); err == nil {
		t.Error("k=3 accepted")
	}
}

func TestSIMPreservesTrialBudget(t *testing.T) {
	m := readoutOnlyMachine(device.IBMQX4())
	job, err := NewJob(kernels.BasisPrep(bs("11011")), m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SIM4Context(context.Background(), job, 10001, 104)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged.Total() != 10001 {
		t.Errorf("merged total = %d, want 10001", res.Merged.Total())
	}
	if len(res.PerMode) != 4 {
		t.Errorf("per-mode histograms = %d", len(res.PerMode))
	}
	sum := 0
	for _, pm := range res.PerMode {
		sum += pm.Total()
	}
	if sum != 10001 {
		t.Errorf("per-mode totals sum to %d", sum)
	}
}

func TestSIMImprovesWeakStatePST(t *testing.T) {
	// Measuring the all-ones state: baseline suffers the full bias; SIM
	// averages it over four modes (paper §5.2).
	m := readoutOnlyMachine(device.IBMQX2())
	target := bs("11111")
	job, err := NewJobWithLayout(kernels.BasisPrep(target), m, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	const shots = 24000
	base, err := job.Baseline(shots, 105)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SIM4Context(context.Background(), job, shots, 106)
	if err != nil {
		t.Fatal(err)
	}
	basePST := pstOf(base, target)
	simPST := pstOf(sim.Merged, target)
	if simPST <= basePST {
		t.Errorf("SIM did not improve weak-state PST: baseline=%.4f SIM=%.4f", basePST, simPST)
	}
}

func TestSIMCostsStrongStatePST(t *testing.T) {
	// The flip side (§5.1): for the strongest state, inverting some
	// trials hurts. SIM trades worst case for average.
	m := readoutOnlyMachine(device.IBMQX2())
	target := bs("00000")
	job, err := NewJobWithLayout(kernels.BasisPrep(target), m, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	const shots = 24000
	base, err := job.Baseline(shots, 107)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SIM4Context(context.Background(), job, shots, 108)
	if err != nil {
		t.Fatal(err)
	}
	if pstOf(sim.Merged, target) >= pstOf(base, target) {
		t.Errorf("SIM should not beat baseline on the strongest state: baseline=%.4f SIM=%.4f",
			pstOf(base, target), pstOf(sim.Merged, target))
	}
}

func TestSIMValidation(t *testing.T) {
	m := noiselessMachine(device.IBMQX2())
	job, err := NewJob(kernels.BasisPrep(bs("000")), m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SIMContext(context.Background(), job, nil, 100, 1); err == nil {
		t.Error("empty string set accepted")
	}
	strings, _ := StandardInversionStrings(3, 4)
	if _, err := SIMContext(context.Background(), job, strings, 3, 1); err == nil {
		t.Error("shots < modes accepted")
	}
}

func TestSIMAveragesTowardMeanBMS(t *testing.T) {
	// With k=2^n modes (here n=3 → 8 strings covering all inversions),
	// the measured PST becomes state-independent: every state sees the
	// average error (paper §5.3). We verify the spread shrinks sharply
	// versus baseline.
	dev := device.IBMQX2()
	m := readoutOnlyMachine(dev)
	all := bitstring.All(3)
	var basePSTs, simPSTs []float64
	for _, target := range all {
		job, err := NewJobWithLayout(kernels.BasisPrep(target), m, []int{0, 1, 4})
		if err != nil {
			t.Fatal(err)
		}
		base, err := job.Baseline(8000, 109)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := SIMContext(context.Background(), job, all, 8000, 110)
		if err != nil {
			t.Fatal(err)
		}
		basePSTs = append(basePSTs, pstOf(base, target))
		simPSTs = append(simPSTs, pstOf(sim.Merged, target))
	}
	if spread(simPSTs) >= spread(basePSTs)/2 {
		t.Errorf("full-mode SIM spread %.4f not well below baseline spread %.4f",
			spread(simPSTs), spread(basePSTs))
	}
}

func spread(v []float64) float64 {
	min, max := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		min = math.Min(min, x)
		max = math.Max(max, x)
	}
	return max - min
}

func TestFig7WorkedExampleShape(t *testing.T) {
	// Paper Fig 7: expected output "101"; standard mode is dominated by
	// the lower-weight error "001", and merging with the inverted mode
	// restores "101" to rank 1. We reproduce the qualitative flip using
	// a strongly biased synthetic device.
	dev := device.IBMQX2()
	m := readoutOnlyMachine(dev)
	target := bs("101")
	job, err := NewJobWithLayout(kernels.BasisPrep(target), m, []int{0, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	strings2, _ := StandardInversionStrings(3, 2)
	res, err := SIMContext(context.Background(), job, strings2, 20000, 111)
	if err != nil {
		t.Fatal(err)
	}
	if rank := metrics.ROCA(res.Merged.Dist(), target); rank != 1 {
		t.Errorf("merged ROCA = %d, want 1", rank)
	}
}

func TestBaselineMatchesBackendDirectly(t *testing.T) {
	// Baseline is RunWithInversion(zeros): spot-check equivalence.
	m := readoutOnlyMachine(device.IBMQX4())
	job, err := NewJob(kernels.BasisPrep(bs("0110")), m)
	if err != nil {
		t.Fatal(err)
	}
	a, err := job.Baseline(4000, 112)
	if err != nil {
		t.Fatal(err)
	}
	b, err := job.RunWithInversion(bitstring.Zeros(4), 4000, 112)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range a.Outcomes() {
		if a.Get(o) != b.Get(o) {
			t.Fatalf("baseline != zero-inversion at %v", o)
		}
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := make(map[int64]bool)
	for g := 0; g < 1000; g++ {
		s := deriveSeed(42, g)
		if seen[s] {
			t.Fatalf("seed collision at group %d", g)
		}
		seen[s] = true
	}
	if deriveSeed(1, 0) == deriveSeed(2, 0) {
		t.Error("different base seeds collide")
	}
}
