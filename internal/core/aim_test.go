package core

import (
	"context"
	"math"
	"testing"

	"biasmit/internal/bitstring"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/kernels"
	"biasmit/internal/metrics"
)

func TestAIMConfigDefaults(t *testing.T) {
	cfg, err := AIMConfig{}.withDefaults(5)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CanaryFraction != 0.25 || cfg.K != 4 || len(cfg.CanaryStrings) != 4 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestAIMConfigValidation(t *testing.T) {
	cases := []AIMConfig{
		{CanaryFraction: -0.1},
		{CanaryFraction: 1.5},
		{K: -1},
		{CanaryStrings: []bitstring.Bits{bitstring.Zeros(3)}}, // wrong width for 5
	}
	for i, cfg := range cases {
		if _, err := cfg.withDefaults(5); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestLikelihoods(t *testing.T) {
	// Paper Eq 1 example: X has strength 0.1, Y 0.2, equal frequency →
	// X twice as likely as Y.
	rbms, _ := NewRBMS(1, []float64{0.1, 0.2})
	obs := dist.Dist{Width: 1, P: map[bitstring.Bits]float64{
		bs("0"): 0.5, bs("1"): 0.5,
	}}
	l := Likelihoods(obs, rbms)
	if math.Abs(l[bs("0")]/l[bs("1")]-2) > 1e-9 {
		t.Errorf("likelihood ratio = %v", l[bs("0")]/l[bs("1")])
	}
}

func TestLikelihoodsZeroStrengthFloor(t *testing.T) {
	rbms, _ := NewRBMS(1, []float64{0, 0.2})
	obs := dist.Dist{Width: 1, P: map[bitstring.Bits]float64{
		bs("0"): 0.5, bs("1"): 0.5,
	}}
	l := Likelihoods(obs, rbms)
	if !(l[bs("0")] > l[bs("1")]) || math.IsInf(l[bs("0")], 1) {
		t.Errorf("zero-strength handling: %v", l)
	}
}

func TestTopKByLikelihoodDeterministic(t *testing.T) {
	l := map[bitstring.Bits]float64{
		bs("00"): 1.0, bs("01"): 2.0, bs("10"): 2.0, bs("11"): 0.5,
	}
	top := topKByLikelihood(l, 3)
	if len(top) != 3 || top[0] != bs("01") || top[1] != bs("10") || top[2] != bs("00") {
		t.Errorf("topK = %v", top)
	}
	all := topKByLikelihood(l, 10)
	if len(all) != 4 {
		t.Errorf("k beyond size = %v", all)
	}
}

func TestAIMPreservesTrialBudget(t *testing.T) {
	dev := device.IBMQX4()
	m := readoutOnlyMachine(dev)
	job, err := NewJobWithLayout(kernels.BasisPrep(bs("11011")), m, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	rbms := exactRBMS(dev, []int{0, 1, 2, 3, 4})
	res, err := AIMContext(context.Background(), job, rbms, AIMConfig{}, 8000, 301)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged.Total() != 8000 {
		t.Errorf("merged total = %d", res.Merged.Total())
	}
	if res.Canary.Total() != 2000 {
		t.Errorf("canary total = %d, want 25%% of 8000", res.Canary.Total())
	}
	if len(res.Candidates) == 0 || len(res.Candidates) > 4 {
		t.Errorf("candidates = %d", len(res.Candidates))
	}
}

func TestAIMCandidateInversionsTargetStrongest(t *testing.T) {
	dev := device.IBMQX4()
	m := readoutOnlyMachine(dev)
	job, err := NewJobWithLayout(kernels.BasisPrep(bs("10110")), m, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	rbms := exactRBMS(dev, []int{0, 1, 2, 3, 4})
	res, err := AIMContext(context.Background(), job, rbms, AIMConfig{}, 8000, 302)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if c.Output.Xor(c.Inversion) != res.Strongest {
			t.Errorf("candidate %v inversion %v does not map to strongest %v",
				c.Output, c.Inversion, res.Strongest)
		}
	}
	// The true output must be among the candidates for a readout-only
	// machine with this budget.
	found := false
	for _, c := range res.Candidates {
		if c.Output == bs("10110") {
			found = true
		}
	}
	if !found {
		t.Errorf("true output missing from candidates %v", res.Candidates)
	}
}

func TestAIMBeatsSIMOnWeakStates(t *testing.T) {
	// Fig 13's claim: for weak target states on ibmqx4, AIM > SIM >
	// baseline in PST. Use the machine's weakest basis state as target.
	dev := device.IBMQX4()
	m := readoutOnlyMachine(dev)
	layout := []int{0, 1, 2, 3, 4}
	rbms := exactRBMS(dev, layout)
	target := weakestState(rbms)
	job, err := NewJobWithLayout(kernels.BasisPrep(target), m, layout)
	if err != nil {
		t.Fatal(err)
	}
	const shots = 32000
	base, err := job.Baseline(shots, 303)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SIM4Context(context.Background(), job, shots, 304)
	if err != nil {
		t.Fatal(err)
	}
	aim, err := AIMContext(context.Background(), job, rbms, AIMConfig{}, shots, 305)
	if err != nil {
		t.Fatal(err)
	}
	basePST := pstOf(base, target)
	simPST := pstOf(sim.Merged, target)
	aimPST := pstOf(aim.Merged, target)
	if !(aimPST > simPST && simPST > basePST) {
		t.Errorf("ordering violated: baseline=%.4f SIM=%.4f AIM=%.4f", basePST, simPST, aimPST)
	}
}

func TestAIMFlattensPSTAcrossStates(t *testing.T) {
	// Fig 13: with AIM the PST is nearly state-independent; the baseline
	// varies strongly with the stored value. Compare PST spreads across a
	// sample of basis states.
	dev := device.IBMQX4()
	m := readoutOnlyMachine(dev)
	layout := []int{0, 1, 2, 3, 4}
	rbms := exactRBMS(dev, layout)
	targets := []bitstring.Bits{
		bs("00000"), bs("00111"), bs("11011"), bs("11111"), bs("10101"),
	}
	var basePSTs, aimPSTs []float64
	for i, target := range targets {
		job, err := NewJobWithLayout(kernels.BasisPrep(target), m, layout)
		if err != nil {
			t.Fatal(err)
		}
		base, err := job.Baseline(12000, int64(400+i))
		if err != nil {
			t.Fatal(err)
		}
		aim, err := AIMContext(context.Background(), job, rbms, AIMConfig{}, 12000, int64(500+i))
		if err != nil {
			t.Fatal(err)
		}
		basePSTs = append(basePSTs, pstOf(base, target))
		aimPSTs = append(aimPSTs, pstOf(aim.Merged, target))
	}
	if spread(aimPSTs) >= spread(basePSTs) {
		t.Errorf("AIM spread %.4f not below baseline spread %.4f (base %v, aim %v)",
			spread(aimPSTs), spread(basePSTs), basePSTs, aimPSTs)
	}
}

func TestAIMValidation(t *testing.T) {
	dev := device.IBMQX2()
	m := readoutOnlyMachine(dev)
	job, err := NewJobWithLayout(kernels.BasisPrep(bs("101")), m, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	rbms3 := exactRBMS(dev, []int{0, 1, 2})
	rbms5 := exactRBMS(dev, []int{0, 1, 2, 3, 4})
	if _, err := AIMContext(context.Background(), job, rbms5, AIMConfig{}, 8000, 1); err == nil {
		t.Error("RBMS width mismatch accepted")
	}
	if _, err := AIMContext(context.Background(), job, rbms3, AIMConfig{}, 8, 1); err == nil {
		t.Error("tiny budget accepted")
	}
	if _, err := AIMContext(context.Background(), job, rbms3, AIMConfig{CanaryFraction: 0.99, K: 100}, 100, 1); err == nil {
		t.Error("K exceeding adaptive budget accepted")
	}
}

func TestAIMImprovesIST(t *testing.T) {
	// Table 5's metric: AIM lifts IST when the correct answer is a weak
	// state being masked by stronger incorrect answers.
	dev := device.IBMQX4()
	m := readoutOnlyMachine(dev)
	layout := []int{0, 1, 2, 3, 4}
	rbms := exactRBMS(dev, layout)
	target := weakestState(rbms)
	job, err := NewJobWithLayout(kernels.BasisPrep(target), m, layout)
	if err != nil {
		t.Fatal(err)
	}
	const shots = 32000
	base, err := job.Baseline(shots, 306)
	if err != nil {
		t.Fatal(err)
	}
	aim, err := AIMContext(context.Background(), job, rbms, AIMConfig{}, shots, 307)
	if err != nil {
		t.Fatal(err)
	}
	baseIST := metrics.IST(base.Dist(), target)
	aimIST := metrics.IST(aim.Merged.Dist(), target)
	if aimIST <= baseIST {
		t.Errorf("AIM IST %.3f not above baseline %.3f", aimIST, baseIST)
	}
}

func TestSplitShotsWeighted(t *testing.T) {
	got := splitShotsWeighted(100, []float64{3, 1})
	if got[0]+got[1] != 100 {
		t.Fatalf("total = %d", got[0]+got[1])
	}
	if got[0] != 75 || got[1] != 25 {
		t.Errorf("split = %v, want [75 25]", got)
	}
	// Tiny weights still receive at least one trial.
	got = splitShotsWeighted(10, []float64{100, 0.001, 0.001})
	sum := 0
	for _, g := range got {
		sum += g
		if g < 1 {
			t.Errorf("allocation %v starves a candidate", got)
		}
	}
	if sum != 10 {
		t.Errorf("total = %d", sum)
	}
	// Degenerate weights fall back to an equal split.
	got = splitShotsWeighted(9, []float64{0, 0, 0})
	if got[0]+got[1]+got[2] != 9 {
		t.Errorf("fallback total = %v", got)
	}
}

func TestAIMWeightedBeatsEqualAllocation(t *testing.T) {
	// The default likelihood-weighted allocation should beat the equal
	// split when the canary confidently identifies the answer (BV-like
	// single-answer workloads, Fig 13's regime).
	dev := device.IBMQX4()
	m := readoutOnlyMachine(dev)
	layout := []int{0, 1, 2, 3, 4}
	rbms := exactRBMS(dev, layout)
	target := weakestState(rbms)
	job, err := NewJobWithLayout(kernels.BasisPrep(target), m, layout)
	if err != nil {
		t.Fatal(err)
	}
	const shots = 32000
	weighted, err := AIMContext(context.Background(), job, rbms, AIMConfig{}, shots, 601)
	if err != nil {
		t.Fatal(err)
	}
	equal, err := AIMContext(context.Background(), job, rbms, AIMConfig{EqualAllocation: true}, shots, 602)
	if err != nil {
		t.Fatal(err)
	}
	if weighted.Merged.Total() != shots || equal.Merged.Total() != shots {
		t.Fatalf("budgets: weighted %d, equal %d", weighted.Merged.Total(), equal.Merged.Total())
	}
	wPST := pstOf(weighted.Merged, target)
	ePST := pstOf(equal.Merged, target)
	if wPST <= ePST {
		t.Errorf("weighted allocation %.4f not above equal %.4f", wPST, ePST)
	}
}

func TestExpandCandidates(t *testing.T) {
	likes := map[bitstring.Bits]float64{
		bs("00010"): 1.0,
		bs("11111"): 0.1,
	}
	out := expandCandidates(likes, 2, 1)
	// Every 1-bit neighbour of 00010 must appear with likelihood 0.5.
	for _, nb := range []string{"00011", "00000", "00110", "01010", "10010"} {
		if got := out[bs(nb)]; math.Abs(got-0.5) > 1e-12 {
			t.Errorf("neighbour %s likelihood = %v, want 0.5", nb, got)
		}
	}
	// Observed states keep their own likelihood.
	if out[bs("00010")] != 1.0 || out[bs("11111")] != 0.1 {
		t.Errorf("originals changed: %v", out)
	}
	// Distance 2 reaches two flips away with 0.25.
	out2 := expandCandidates(likes, 1, 2)
	if got := out2[bs("00111")]; math.Abs(got-0.25) > 1e-12 {
		t.Errorf("distance-2 neighbour = %v, want 0.25", got)
	}
}

func TestAIMWithExpansionRescuesMisreadOutput(t *testing.T) {
	// With a minimal canary the true weak output may be absent from the
	// observed log, but its misreads (one flip away) are present; the
	// expanded pool must contain it as a candidate.
	dev := device.IBMQX4()
	m := readoutOnlyMachine(dev)
	layout := []int{0, 1, 2, 3, 4}
	rbms := exactRBMS(dev, layout)
	target := weakestState(rbms)
	job, err := NewJobWithLayout(kernels.BasisPrep(target), m, layout)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AIMContext(context.Background(), job, rbms, AIMConfig{ExpandHamming: 1}, 8000, 603)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged.Total() != 8000 {
		t.Errorf("budget = %d", res.Merged.Total())
	}
	found := false
	for _, c := range res.Candidates {
		if c.Output == target {
			found = true
		}
	}
	if !found {
		t.Errorf("target %v missing from expanded candidates %v", target, res.Candidates)
	}
}

func TestAutoAIMEndToEnd(t *testing.T) {
	dev := device.IBMQX4()
	m := readoutOnlyMachine(dev)
	target := bs("11110")
	job, err := NewJobWithLayout(kernels.BasisPrep(target), m, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's full pipeline (Fig 12): brute-force profile the 5-qubit
	// output register, then AIM with that profile.
	ctx := context.Background()
	rbms, err := job.Profiler().BruteForceContext(ctx, 1000, deriveSeed(801, 6000))
	if err != nil {
		t.Fatal(err)
	}
	res, err := AIMContext(ctx, job, rbms, AIMConfig{}, 16000, 801)
	if err != nil {
		t.Fatal(err)
	}
	if rbms.Width != 5 {
		t.Errorf("profile width = %d", rbms.Width)
	}
	if res.Merged.Total() != 16000 {
		t.Errorf("budget = %d", res.Merged.Total())
	}
	base, err := job.Baseline(16000, 802)
	if err != nil {
		t.Fatal(err)
	}
	if pstOf(res.Merged, target) <= pstOf(base, target) {
		t.Errorf("AIM %.4f not above baseline %.4f",
			pstOf(res.Merged, target), pstOf(base, target))
	}
	if _, err := job.Profiler().BruteForceContext(ctx, 0, 1); err == nil {
		t.Error("zero profile shots accepted")
	}
}
