package experiments

import (
	"context"
	"strings"
	"testing"
)

// quick returns a configuration small enough for CI but large enough for
// the shape assertions to be statistically stable.
func quick(scale float64, seed int64) Config { return Config{Scale: scale, Seed: seed} }

func TestConfigShots(t *testing.T) {
	if got := (Config{}).shots(16000); got != 16000 {
		t.Errorf("default scale shots = %d", got)
	}
	if got := (Config{Scale: 0.5}).shots(16000); got != 8000 {
		t.Errorf("half scale shots = %d", got)
	}
	if got := (Config{Scale: 0.001}).shots(16000); got != 400 {
		t.Errorf("floor shots = %d", got)
	}
}

func TestFigure1Shape(t *testing.T) {
	r, err := Figure1(context.Background(), quick(0.25, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !(r.PSTZeros > r.PSTInverted && r.PSTInverted > r.PSTOnes) {
		t.Errorf("Fig 1 ordering: zeros=%.3f inverted=%.3f ones=%.3f",
			r.PSTZeros, r.PSTInverted, r.PSTOnes)
	}
	if s := r.Render(); !strings.Contains(s, "invert-and-measure") {
		t.Errorf("render missing label:\n%s", s)
	}
}

func TestTable1MatchesPaperStats(t *testing.T) {
	r, err := Table1(context.Background(), quick(1, 2)) // full shots: cheap (basis preps only)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	want := map[string][3]float64{
		"ibmqx2":         {0.012, 0.038, 0.128},
		"ibmqx4":         {0.034, 0.082, 0.207},
		"ibmq-melbourne": {0.022, 0.0812, 0.310},
	}
	for _, row := range r.Rows {
		w := want[row.Machine]
		if diff := abs(row.Min - w[0]); diff > 0.01 {
			t.Errorf("%s min = %v, want ≈ %v", row.Machine, row.Min, w[0])
		}
		if diff := abs(row.Avg - w[1]); diff > 0.01 {
			t.Errorf("%s avg = %v, want ≈ %v", row.Machine, row.Avg, w[1])
		}
		if diff := abs(row.Max - w[2]); diff > 0.025 {
			t.Errorf("%s max = %v, want ≈ %v", row.Machine, row.Max, w[2])
		}
	}
	if s := r.Render(); !strings.Contains(s, "ibmq-melbourne") {
		t.Errorf("render:\n%s", s)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestFigure4Shape(t *testing.T) {
	r, err := Figure4(context.Background(), quick(0.05, 3))
	if err != nil {
		t.Fatal(err)
	}
	if r.Correlation > -0.7 {
		t.Errorf("ibmqx2 BMS-weight correlation = %v, want strongly negative (paper -0.93)", r.Correlation)
	}
	// First state (00000) is the relative maximum; last (11111) is weak.
	if r.Direct[0] < 0.99 {
		t.Errorf("direct[00000] = %v, want ≈ 1 (relative)", r.Direct[0])
	}
	last := r.Direct[len(r.Direct)-1]
	if last >= 0.95 {
		t.Errorf("direct[11111] = %v, want visibly below 1", last)
	}
	if r.ESCTvsDirectMSE > 1e-4 {
		t.Errorf("ESCT MSE = %v", r.ESCTvsDirectMSE)
	}
}

func TestFigure5Shape(t *testing.T) {
	r, err := Figure5(context.Background(), quick(0.2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ByWeight) != 11 {
		t.Fatalf("weights = %d", len(r.ByWeight))
	}
	// Monotone decreasing trend: endpoint gap and overall correlation.
	if r.ByWeight[10] >= r.ByWeight[0]*0.95 {
		t.Errorf("weight-10 strength %v not below weight-0 %v", r.ByWeight[10], r.ByWeight[0])
	}
	if r.Correlation > -0.5 {
		t.Errorf("melbourne correlation = %v", r.Correlation)
	}
	// Per-step trend with slack for sampling noise at the sparse
	// high-weight bins (weight 10 is a single state).
	for w := 1; w <= 10; w++ {
		if r.ByWeight[w] > r.ByWeight[w-1]*1.25 {
			t.Errorf("weight %d strength %v rises above weight %d (%v)", w, r.ByWeight[w], w-1, r.ByWeight[w-1])
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	r, err := Figure3(context.Background(), quick(0.5, 5))
	if err != nil {
		t.Fatal(err)
	}
	// The good key stays inferable; the all-ones key is weaker.
	if r.GoodKeyIST <= r.BadKeyIST {
		t.Errorf("IST(good)=%v <= IST(bad)=%v", r.GoodKeyIST, r.BadKeyIST)
	}
	if r.GoodKeyIST < 1 {
		t.Errorf("good key not inferable: IST=%v", r.GoodKeyIST)
	}
	if got := r.Ideal.Prob(r.GoodTarget); got != 1 {
		t.Errorf("ideal P(target) = %v", got)
	}
}

func TestFigure6Shape(t *testing.T) {
	r, err := Figure6(context.Background(), quick(0.25, 6))
	if err != nil {
		t.Fatal(err)
	}
	if r.PZeros <= r.POnes {
		t.Errorf("GHZ skew missing: P0=%v P1=%v", r.PZeros, r.POnes)
	}
	if r.Skew < 1.3 {
		t.Errorf("GHZ skew = %.2f, want pronounced (paper ≈ 4)", r.Skew)
	}
	if r.PZeros < 0.25 || r.PZeros > 0.55 {
		t.Errorf("P(00000) = %v, paper ≈ 0.4", r.PZeros)
	}
}

func TestTable2Shape(t *testing.T) {
	r, err := Table2(context.Background(), quick(0.1, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// PST of the low-weight graphs beats the high-weight graphs
	// (paper: A,B ≈ 2x of D,E), and ROCA degrades.
	lowPST := (r.Rows[0].PST + r.Rows[1].PST) / 2
	highPST := (r.Rows[3].PST + r.Rows[4].PST) / 2
	if lowPST <= highPST {
		t.Errorf("PST did not degrade with weight: low %v, high %v", lowPST, highPST)
	}
	if r.Rows[0].ROCA > r.Rows[4].ROCA {
		t.Errorf("ROCA did not degrade: A=%d E=%d", r.Rows[0].ROCA, r.Rows[4].ROCA)
	}
	// IST: the weight-4 graphs (D, E) are masked below 1 by their own
	// low-weight complements, while Graph-A's weight-1 optimum stays on
	// top. IST does not fall monotonically with weight at every seed
	// (C can read above B), so only the two ends are asserted.
	for _, row := range r.Rows[3:] {
		if row.IST >= 1 {
			t.Errorf("graph %s (weight %d): IST %v, want < 1", row.Graph, row.HammingWeight, row.IST)
		}
	}
	if a := r.Rows[0]; a.IST <= 1 {
		t.Errorf("graph %s (weight %d): IST %v, want > 1", a.Graph, a.HammingWeight, a.IST)
	}
}

func TestFigure7WorkedExample(t *testing.T) {
	r := Figure7(Config{})
	// Paper Fig 7(D): merged distribution has 101 at 0.55 and rank 1;
	// the standard mode alone ranked it second.
	if r.StandardRank != 2 {
		t.Errorf("standard rank = %d, want 2", r.StandardRank)
	}
	if r.MergedRank != 1 {
		t.Errorf("merged rank = %d, want 1", r.MergedRank)
	}
	if got := r.Merged.Prob(r.Correct); abs(got-0.55) > 1e-9 {
		t.Errorf("merged P(101) = %v, want 0.55", got)
	}
}

func TestFigure9Shape(t *testing.T) {
	r, err := Figure9(context.Background(), quick(0.15, 8))
	if err != nil {
		t.Fatal(err)
	}
	if r.SIMROCA > r.BaselineROCA {
		t.Errorf("SIM ROCA %d worse than baseline %d", r.SIMROCA, r.BaselineROCA)
	}
	if r.SIMIST < r.BaselineIST {
		t.Errorf("SIM IST %v below baseline %v", r.SIMIST, r.BaselineIST)
	}
	if len(r.Baseline) != 64 || len(r.SIM) != 64 {
		t.Fatalf("series lengths %d/%d", len(r.Baseline), len(r.SIM))
	}
}

func TestSuiteShape(t *testing.T) {
	r, err := RunSuite(context.Background(), quick(0.04, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("suite rows = %d", len(r.Rows))
	}
	sim, aim := r.MeanImprovement()
	if sim <= 1.0 {
		t.Errorf("mean SIM improvement = %v, want > 1", sim)
	}
	if aim <= sim {
		t.Errorf("mean AIM improvement %v not above SIM %v", aim, sim)
	}
	// ibmqx4 (heavily biased) should gain more from SIM than ibmqx2
	// (paper: 74% vs 22%).
	gain := func(machineName string) float64 {
		var g float64
		var n int
		for _, row := range r.Rows {
			if row.Machine == machineName && row.Baseline.PST > 0 {
				g += row.SIM.PST / row.Baseline.PST
				n++
			}
		}
		return g / float64(n)
	}
	if gain("ibmqx4") <= gain("ibmqx2") {
		t.Errorf("SIM gain on ibmqx4 (%v) not above ibmqx2 (%v)", gain("ibmqx4"), gain("ibmqx2"))
	}
	for _, render := range []string{r.Figure10(), r.Figure14(), r.Table5()} {
		if !strings.Contains(render, "ibmqx4") {
			t.Errorf("render missing machines:\n%s", render)
		}
	}
}

func TestFigure11Shape(t *testing.T) {
	r, err := Figure11(context.Background(), quick(0.15, 10))
	if err != nil {
		t.Fatal(err)
	}
	// (a) arbitrary bias: weight correlation much weaker than ibmqx2's.
	if r.BasisHammingCorr < -0.85 {
		t.Errorf("ibmqx4 basis-PST weight correlation = %v, expected weak", r.BasisHammingCorr)
	}
	// (b) correlates positively with (a); gate noise in the BV circuits
	// keeps this well below 1 at reduced scale.
	if r.Correlation < 0.2 {
		t.Errorf("BV PST vs basis PST correlation = %v, want positive", r.Correlation)
	}
}

func TestFigure13Shape(t *testing.T) {
	r, err := Figure13(context.Background(), quick(0.04, 11))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 32 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.AIMMean <= r.BaselineMean {
		t.Errorf("AIM mean %v not above baseline %v", r.AIMMean, r.BaselineMean)
	}
	if r.AIMSpread >= r.BaselineSpread {
		t.Errorf("AIM spread %v not below baseline %v", r.AIMSpread, r.BaselineSpread)
	}
	// Trivial all-zeros case: baseline may win (paper's noted exception).
	if r.Rows[0].Target.HammingWeight() != 0 {
		t.Errorf("first row should be all-zeros, got %v", r.Rows[0].Target)
	}
}

func TestTable3Characteristics(t *testing.T) {
	rows := Table3()
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Gate counts scale roughly linearly with problem size (§4.1).
	if byName["bv-7"].Gates2Q >= 3*byName["bv-4A"].Gates2Q {
		t.Errorf("BV 2q gate scaling looks superlinear: %d vs %d",
			byName["bv-7"].Gates2Q, byName["bv-4A"].Gates2Q)
	}
	if byName["qaoa-4A"].Output != "Output cut: 0101" {
		t.Errorf("qaoa-4A output = %q", byName["qaoa-4A"].Output)
	}
	if s := RenderTable3(rows); !strings.Contains(s, "bv-7") {
		t.Errorf("render:\n%s", s)
	}
}

func TestFigure15Shape(t *testing.T) {
	r, err := Figure15(context.Background(), quick(0.05, 12))
	if err != nil {
		t.Fatal(err)
	}
	if r.ESCTvsDirectMSE > 1e-4 {
		t.Errorf("ESCT MSE = %v", r.ESCTvsDirectMSE)
	}
	if r.AWCTvsDirectMSE > 2e-4 {
		t.Errorf("AWCT MSE = %v", r.AWCTvsDirectMSE)
	}
	if len(r.Direct) != 32 || len(r.ESCT) != 32 || len(r.AWCT) != 32 {
		t.Fatalf("series lengths %d/%d/%d", len(r.Direct), len(r.ESCT), len(r.AWCT))
	}
}

func TestRepeatabilityShape(t *testing.T) {
	r, err := Repeatability(context.Background(), quick(0.25, 13))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles < 5 || len(r.SpearmanToNominal) != r.Cycles {
		t.Fatalf("cycles = %d, series = %d", r.Cycles, len(r.SpearmanToNominal))
	}
	// §6.1: the bias ordering is repeatable — high rank correlation in
	// every cycle despite calibration drift.
	if r.MinCorrelation < 0.6 {
		t.Errorf("min rank correlation = %v, want repeatable bias", r.MinCorrelation)
	}
	if r.MeanCorrelation < 0.8 {
		t.Errorf("mean rank correlation = %v", r.MeanCorrelation)
	}
	if r.StrongestStable < r.Cycles/2 {
		t.Errorf("strongest state stable in only %d/%d cycles", r.StrongestStable, r.Cycles)
	}
}

func TestMitigationComparisonShape(t *testing.T) {
	r, err := MitigationComparison(context.Background(), quick(0.15, 14))
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]MitigationComparisonRow{}
	for _, row := range r.Rows {
		byPolicy[row.Policy] = row
	}
	base := byPolicy["baseline"].PST
	// Every mitigation technique must beat the raw baseline on this
	// vulnerable workload.
	for _, policy := range []string{"SIM", "AIM", "matrix (tensored)", "matrix (full)", "SIM + tensored"} {
		if byPolicy[policy].PST <= base {
			t.Errorf("%s PST %.4f not above baseline %.4f", policy, byPolicy[policy].PST, base)
		}
	}
	// Composition should not hurt SIM.
	if byPolicy["SIM + tensored"].PST < byPolicy["SIM"].PST {
		t.Errorf("composition %.4f below SIM alone %.4f",
			byPolicy["SIM + tensored"].PST, byPolicy["SIM"].PST)
	}
	if s := r.Render(); !strings.Contains(s, "matrix (full)") {
		t.Errorf("render:\n%s", s)
	}
}

func TestAllocationComparisonShape(t *testing.T) {
	r, err := AllocationComparison(context.Background(), quick(0.25, 15))
	if err != nil {
		t.Fatal(err)
	}
	// Variability-aware allocation must beat the identity allocation on
	// melbourne, whose identity layout includes high-error qubits.
	if r.AwarePST <= r.NaivePST {
		t.Errorf("aware %.4f not above naive %.4f", r.AwarePST, r.NaivePST)
	}
	if s := r.Render(); !strings.Contains(s, "variability-aware") {
		t.Errorf("render:\n%s", s)
	}
}

func TestScheduleAblationShape(t *testing.T) {
	r, err := ScheduleAblation(context.Background(), quick(0.25, 16))
	if err != nil {
		t.Fatal(err)
	}
	// Idle-window decay hits the all-ones GHZ branch harder: skew widens.
	if r.ScheduledSkew <= r.GateOnlySkew {
		t.Errorf("schedule-aware skew %.2f not above gate-only %.2f", r.ScheduledSkew, r.GateOnlySkew)
	}
	if r.ScheduledPOnes >= r.GateOnlyPOnes {
		t.Errorf("schedule-aware P(11111) %.4f not below gate-only %.4f", r.ScheduledPOnes, r.GateOnlyPOnes)
	}
}

func TestScalingShape(t *testing.T) {
	r, err := Scaling(context.Background(), quick(0.1, 17))
	if err != nil {
		t.Fatal(err)
	}
	if r.Width != 12 {
		t.Fatalf("width = %d", r.Width)
	}
	// The all-ones key is the vulnerable case: every mitigation must
	// beat the baseline at 16 qubits too.
	if r.SIMPST <= r.BaselinePST {
		t.Errorf("SIM %.4f not above baseline %.4f", r.SIMPST, r.BaselinePST)
	}
	if r.AIMPST <= r.BaselinePST {
		t.Errorf("AIM %.4f not above baseline %.4f", r.AIMPST, r.BaselinePST)
	}
	if r.ReducedPST <= r.BaselinePST {
		t.Errorf("reduced matrix %.4f not above baseline %.4f", r.ReducedPST, r.BaselinePST)
	}
	if s := r.Render(); !strings.Contains(s, "AWCT") {
		t.Errorf("render:\n%s", s)
	}
}

func TestZNEComparisonShape(t *testing.T) {
	r, err := ZNEComparison(context.Background(), quick(0.2, 18))
	if err != nil {
		t.Fatal(err)
	}
	// Noise pulls the expected cut below ideal; each mitigation closes
	// part of the gap and the composition closes the most.
	if r.Raw >= r.Ideal {
		t.Fatalf("premise broken: raw %v not below ideal %v", r.Raw, r.Ideal)
	}
	gap := func(v float64) float64 { return abs(r.Ideal - v) }
	if gap(r.ZNEOnly) >= gap(r.Raw) {
		t.Errorf("ZNE did not help: raw gap %v, ZNE gap %v", gap(r.Raw), gap(r.ZNEOnly))
	}
	if gap(r.ZNEPlus) >= gap(r.SIMOnly) {
		t.Errorf("composition (%v) not better than SIM alone (%v)", gap(r.ZNEPlus), gap(r.SIMOnly))
	}
	if s := r.Render(); !strings.Contains(s, "ZNE + SIM") {
		t.Errorf("render:\n%s", s)
	}
}

func TestFigure8Shape(t *testing.T) {
	r, err := Figure8(context.Background(), quick(0.25, 19))
	if err != nil {
		t.Fatal(err)
	}
	worst := r.Standard
	if r.Inverted < worst {
		worst = r.Inverted
	}
	// Averaging over four modes must beat the worst single mode and stay
	// within the single-mode envelope.
	if r.SIM4 <= worst {
		t.Errorf("4-string SIM %.4f not above the worst mode %.4f", r.SIM4, worst)
	}
	best := r.Standard
	if r.Inverted > best {
		best = r.Inverted
	}
	if r.SIM4 > best+0.02 || r.SIM2 > best+0.02 {
		t.Errorf("merged PST escaped the mode envelope: sim2 %.4f sim4 %.4f best %.4f", r.SIM2, r.SIM4, best)
	}
	if s := r.Render(); !strings.Contains(s, "4 strings") {
		t.Errorf("render:\n%s", s)
	}
}
