package core

import (
	"context"
	"math"
	"testing"

	"biasmit/internal/bitstring"
	"biasmit/internal/device"
	"biasmit/internal/kernels"
)

// exactRBMS computes the ground-truth logical BMS for a layout on a
// device's readout channel (gate noise excluded).
func exactRBMS(dev *device.Device, layout []int) RBMS {
	model := dev.ReadoutModel()
	n := len(layout)
	strength := make([]float64, 1<<uint(n))
	for _, b := range bitstring.All(n) {
		phys := bitstring.Zeros(dev.NumQubits)
		for lq, pq := range layout {
			phys = phys.SetBit(pq, b.Bit(lq))
		}
		strength[b.Uint64()] = model.SubsetSuccessProb(phys, layout)
	}
	r, err := NewRBMS(n, strength)
	if err != nil {
		panic(err)
	}
	return r
}

func TestNewRBMSValidation(t *testing.T) {
	if _, err := NewRBMS(3, make([]float64, 7)); err == nil {
		t.Error("wrong length accepted")
	}
	if _, err := NewRBMS(2, []float64{1, -0.1, 0.5, 0.2}); err == nil {
		t.Error("negative strength accepted")
	}
	if _, err := NewRBMS(2, []float64{1, math.NaN(), 0.5, 0.2}); err == nil {
		t.Error("NaN strength accepted")
	}
}

func TestRBMSAccessorsAndNormalization(t *testing.T) {
	r, err := NewRBMS(2, []float64{0.8, 0.4, 0.4, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Of(bs("00")); got != 0.8 {
		t.Errorf("Of(00) = %v", got)
	}
	rel := r.Relative()
	if rel.Strength[0] != 1 || rel.Strength[3] != 0.25 {
		t.Errorf("Relative = %v", rel.Strength)
	}
	sum := r.NormalizeSum()
	var tot float64
	for _, s := range sum.Strength {
		tot += s
	}
	if math.Abs(tot-1) > 1e-12 {
		t.Errorf("NormalizeSum total = %v", tot)
	}
	if got := r.StrongestState(); got != bs("00") {
		t.Errorf("StrongestState = %v", got)
	}
}

func TestStrongestStateTieBreak(t *testing.T) {
	r, _ := NewRBMS(2, []float64{0.5, 0.9, 0.9, 0.1})
	if got := r.StrongestState(); got != bs("01") {
		t.Errorf("tie-break = %v, want 01 (numerically smallest)", got)
	}
}

func TestBruteForceMatchesExactBMS(t *testing.T) {
	dev := device.IBMQX4()
	m := readoutOnlyMachine(dev)
	layout := []int{0, 1, 2, 3, 4}
	prof := &Profiler{Machine: m, Layout: layout}
	got, err := prof.BruteForceContext(context.Background(), 4000, 201)
	if err != nil {
		t.Fatal(err)
	}
	want := exactRBMS(dev, layout)
	for _, b := range bitstring.All(5) {
		if math.Abs(got.Of(b)-want.Of(b)) > 0.04 {
			t.Errorf("BMS(%v) = %v, exact %v", b, got.Of(b), want.Of(b))
		}
	}
}

func TestESCTMatchesBruteForceShape(t *testing.T) {
	// Appendix A: ESCT approximates the brute-force RBMS within a few
	// percent MSE on normalized curves (paper: 5%).
	dev := device.IBMQX4()
	m := readoutOnlyMachine(dev)
	prof := &Profiler{Machine: m, Layout: []int{0, 1, 2, 3, 4}}
	esct, err := prof.ESCTContext(context.Background(), 120000, 202)
	if err != nil {
		t.Fatal(err)
	}
	exact := exactRBMS(dev, prof.Layout)
	mse, err := esct.MSE(exact)
	if err != nil {
		t.Fatal(err)
	}
	// Normalized strengths are ≈ 1/32 ≈ 0.031 each; an MSE of 1e-5 is
	// ~10% relative error per point.
	if mse > 2e-5 {
		t.Errorf("ESCT MSE vs exact = %v", mse)
	}
	// The state ESCT picks as strongest must be near-optimal in truth:
	// sampling noise may swap close contenders, but not strong for weak.
	// (within ~5%, the ESCT approximation error the paper reports).
	picked := exact.Of(esct.StrongestState())
	best := exact.Of(exact.StrongestState())
	if picked < 0.95*best {
		t.Errorf("ESCT strongest %v has exact strength %v, true best %v has %v",
			esct.StrongestState(), picked, exact.StrongestState(), best)
	}
}

func TestAWCTApproximatesESCT(t *testing.T) {
	// Fig 15: AWCT with window 4 / overlap 2 tracks the direct
	// characterization on a 5-qubit machine.
	dev := device.IBMQX4()
	m := readoutOnlyMachine(dev)
	prof := &Profiler{Machine: m, Layout: []int{0, 1, 2, 3, 4}}
	awct, err := prof.AWCTContext(context.Background(), 4, 2, 60000, 203)
	if err != nil {
		t.Fatal(err)
	}
	exact := exactRBMS(dev, prof.Layout)
	mse, err := awct.MSE(exact)
	if err != nil {
		t.Fatal(err)
	}
	if mse > 5e-5 {
		t.Errorf("AWCT MSE vs exact = %v", mse)
	}
	// Rank correlation at the extremes: the exact weakest state should
	// be in AWCT's bottom quartile.
	exWeak := weakestState(exact)
	rank := 0
	for _, b := range bitstring.All(5) {
		if awct.Of(b) < awct.Of(exWeak) {
			rank++
		}
	}
	if rank > 8 {
		t.Errorf("exact weakest state ranks %d from bottom in AWCT", rank+1)
	}
}

func weakestState(r RBMS) bitstring.Bits {
	worst := 0
	for i, s := range r.Strength {
		if s < r.Strength[worst] {
			worst = i
		}
	}
	return bitstring.New(uint64(worst), r.Width)
}

func TestAWCTScalesToMelbourne(t *testing.T) {
	// Appendix A's point: windowed characterization works where brute
	// force cannot (2^10 = 1024 states probed with 4-qubit windows).
	dev := device.IBMQMelbourne()
	m := readoutOnlyMachine(dev)
	layout := []int{0, 1, 2, 3, 4, 5, 6, 8, 9, 10}
	prof := &Profiler{Machine: m, Layout: layout}
	awct, err := prof.AWCTContext(context.Background(), 4, 2, 30000, 204)
	if err != nil {
		t.Fatal(err)
	}
	exact := exactRBMS(dev, layout)
	// Hamming-weight trend must match: correlation strongly negative.
	gotCorr, err := awct.HammingCorrelation()
	if err != nil {
		t.Fatal(err)
	}
	wantCorr, err := exact.HammingCorrelation()
	if err != nil {
		t.Fatal(err)
	}
	if gotCorr > -0.5 {
		t.Errorf("AWCT Hamming correlation = %v (exact %v)", gotCorr, wantCorr)
	}
}

func TestAWCTValidation(t *testing.T) {
	m := readoutOnlyMachine(device.IBMQX2())
	prof := &Profiler{Machine: m, Layout: []int{0, 1, 2, 3, 4}}
	cases := []struct{ win, ov, shots int }{
		{1, 0, 100},  // window too small
		{6, 0, 100},  // window larger than register
		{4, 4, 100},  // overlap >= window
		{4, -1, 100}, // negative overlap
		{4, 2, 0},    // no shots
	}
	for i, c := range cases {
		if _, err := prof.AWCTContext(context.Background(), c.win, c.ov, c.shots, 1); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestBruteForceValidation(t *testing.T) {
	m := readoutOnlyMachine(device.IBMQX2())
	prof := &Profiler{Machine: m, Layout: []int{0, 1, 2}}
	if _, err := prof.BruteForceContext(context.Background(), 0, 1); err == nil {
		t.Error("zero shots accepted")
	}
	bigLayout := make([]int, 17)
	bigProf := &Profiler{Machine: m, Layout: bigLayout}
	if _, err := bigProf.BruteForceContext(context.Background(), 10, 1); err == nil {
		t.Error("17-qubit brute force accepted")
	}
}

func TestProfilerUsesJobLayout(t *testing.T) {
	m := readoutOnlyMachine(device.IBMQMelbourne())
	job, err := NewJob(kernels.BasisPrep(bitstring.Zeros(3)), m)
	if err != nil {
		t.Fatal(err)
	}
	prof := job.Profiler()
	if len(prof.Layout) != 3 {
		t.Fatalf("profiler layout = %v", prof.Layout)
	}
	for i, p := range prof.Layout {
		if p != job.Plan.FinalLayout[i] {
			t.Errorf("layout[%d] = %d, want %d", i, p, job.Plan.FinalLayout[i])
		}
	}
}

func TestHammingCorrelationOnIBMQX2(t *testing.T) {
	// Fig 4's correlation, via the exact channel: strongly negative.
	r := exactRBMS(device.IBMQX2(), []int{0, 1, 2, 3, 4})
	corr, err := r.HammingCorrelation()
	if err != nil {
		t.Fatal(err)
	}
	if corr > -0.85 {
		t.Errorf("ibmqx2 correlation = %v", corr)
	}
}

func TestMSEWidthMismatch(t *testing.T) {
	a, _ := NewRBMS(2, []float64{1, 1, 1, 1})
	b, _ := NewRBMS(3, make([]float64, 8))
	if _, err := a.MSE(b); err == nil {
		t.Error("width mismatch accepted")
	}
}
