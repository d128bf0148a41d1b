// Package biasmit's benchmark harness regenerates every table and figure
// of the paper's evaluation (one Benchmark per experiment; see DESIGN.md
// §4 for the index) and adds ablation benches for the design choices the
// paper motivates: SIM mode count, AIM canary fraction and K, AWCT window
// size, and the contribution of each noise process.
//
// Reported custom metrics carry the experiment's figure of merit (PST
// gain, IST, correlation, MSE) so the "shape" results are visible in
// benchmark output:
//
//	go test -bench=. -benchmem
//
// Benches run at a reduced trial scale (benchScale) per iteration; use
// cmd/paperfigs for full-budget reproductions.
package biasmit

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/experiments"
	"biasmit/internal/kernels"
	"biasmit/internal/metrics"
	"biasmit/internal/transpile"
)

// benchScale keeps one iteration of each experiment in the hundreds of
// milliseconds; the statistics remain meaningful because each experiment
// has a 400-trial floor per run.
const benchScale = 0.03

func benchCfg(i int) experiments.Config {
	return experiments.Config{Scale: benchScale, Seed: int64(1000 + i)}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.PSTZeros, "pst_zeros")
			b.ReportMetric(r.PSTOnes, "pst_ones")
			b.ReportMetric(r.PSTInverted, "pst_inverted")
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, row := range r.Rows {
				if row.Machine == "ibmqx4" {
					b.ReportMetric(row.Avg, "ibmqx4_avg_err")
				}
			}
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure3(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.GoodKeyIST, "ist_key01")
			b.ReportMetric(r.BadKeyIST, "ist_key11")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure4(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.Correlation, "hamming_corr")
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.ByWeight[10], "rel_bms_weight10")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure6(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.Skew, "ghz_skew")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.Rows[0].PST/maxf(r.Rows[4].PST, 1e-6), "pstA_over_pstE")
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure7(experiments.Config{})
		if r.MergedRank != 1 {
			b.Fatal("worked example broke")
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure9(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.BaselineROCA), "baseline_roca")
			b.ReportMetric(float64(r.SIMROCA), "sim_roca")
		}
	}
}

// BenchmarkSuite regenerates Fig 10, Fig 14 and Table 5 (they share one
// evaluation of the full benchmark suite under all three policies).
func BenchmarkSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunSuite(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			sim, aim := r.MeanImprovement()
			b.ReportMetric(sim, "sim_pst_gain")
			b.ReportMetric(aim, "aim_pst_gain")
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure11(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.BasisHammingCorr, "basis_hamming_corr")
			b.ReportMetric(r.Correlation, "bv_vs_basis_corr")
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure13(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.AIMMean/maxf(r.BaselineMean, 1e-6), "aim_pst_gain")
			b.ReportMetric(r.AIMSpread, "aim_spread")
			b.ReportMetric(r.BaselineSpread, "baseline_spread")
		}
	}
}

func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure15(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.ESCTvsDirectMSE, "esct_mse")
			b.ReportMetric(r.AWCTvsDirectMSE, "awct_mse")
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationSIMModes sweeps the number of SIM inversion strings.
// The paper predicts diminishing returns past 4 modes (§5.3).
func BenchmarkAblationSIMModes(b *testing.B) {
	dev := device.IBMQX4()
	bench := kernels.BV("bv-4B", bitstring.MustParse("1111"))
	for _, modes := range []int{1, 2, 4, 8} {
		b.Run(name("modes", modes), func(b *testing.B) {
			m := core.NewMachine(dev)
			job, err := core.NewJob(bench.Circuit, m)
			if err != nil {
				b.Fatal(err)
			}
			strings, err := core.StandardInversionStrings(bench.Width(), modes)
			if err != nil {
				b.Fatal(err)
			}
			var pst float64
			for i := 0; i < b.N; i++ {
				res, err := core.SIM(job, strings, 2000, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				pst = metrics.PST(res.Merged.Dist(), bench.Correct[0])
			}
			b.ReportMetric(pst, "pst")
		})
	}
}

// BenchmarkAblationAIMCanary sweeps the canary fraction (paper uses 25%).
func BenchmarkAblationAIMCanary(b *testing.B) {
	dev := device.IBMQX4()
	bench := kernels.BV("bv-4B", bitstring.MustParse("1111"))
	m := core.NewMachine(dev)
	job, err := core.NewJob(bench.Circuit, m)
	if err != nil {
		b.Fatal(err)
	}
	rbms, err := job.Profiler().BruteForce(500, 9)
	if err != nil {
		b.Fatal(err)
	}
	for _, frac := range []float64{0.10, 0.25, 0.50} {
		b.Run(name("canary_pct", int(frac*100)), func(b *testing.B) {
			var pst float64
			for i := 0; i < b.N; i++ {
				res, err := core.AIM(job, rbms, core.AIMConfig{CanaryFraction: frac}, 2000, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				pst = metrics.PST(res.Merged.Dist(), bench.Correct[0])
			}
			b.ReportMetric(pst, "pst")
		})
	}
}

// BenchmarkAblationAIMK sweeps the number of adaptive inversion strings.
func BenchmarkAblationAIMK(b *testing.B) {
	dev := device.IBMQX4()
	bench := kernels.BV("bv-4B", bitstring.MustParse("1111"))
	m := core.NewMachine(dev)
	job, err := core.NewJob(bench.Circuit, m)
	if err != nil {
		b.Fatal(err)
	}
	rbms, err := job.Profiler().BruteForce(500, 10)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(name("k", k), func(b *testing.B) {
			var pst float64
			for i := 0; i < b.N; i++ {
				res, err := core.AIM(job, rbms, core.AIMConfig{K: k}, 2000, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				pst = metrics.PST(res.Merged.Dist(), bench.Correct[0])
			}
			b.ReportMetric(pst, "pst")
		})
	}
}

// BenchmarkAblationAWCTWindow sweeps the window size of the sliding
// characterization (paper uses m=4 with overlap 2). Accuracy is reported
// as MSE against the exhaustive profile.
func BenchmarkAblationAWCTWindow(b *testing.B) {
	dev := device.IBMQX4()
	m := core.NewMachine(dev)
	prof := &core.Profiler{Machine: m, Layout: []int{0, 1, 2, 3, 4}}
	direct, err := prof.BruteForce(2000, 11)
	if err != nil {
		b.Fatal(err)
	}
	for _, win := range []int{2, 3, 4, 5} {
		overlap := win / 2
		b.Run(name("window", win), func(b *testing.B) {
			var mse float64
			for i := 0; i < b.N; i++ {
				awct, err := prof.AWCT(win, overlap, 4000, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if mse, err = awct.MSE(direct); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mse, "mse_vs_direct")
		})
	}
}

// BenchmarkAblationNoise isolates each noise process on the melbourne
// QAOA workload (§7.1: gate errors limit what SIM/AIM can recover).
func BenchmarkAblationNoise(b *testing.B) {
	bench := kernels.BV("bv-6", bitstring.MustParse("011111"))
	cases := []struct {
		label string
		opt   backend.Options
	}{
		{"full_noise", backend.Options{}},
		{"no_readout", backend.Options{NoReadoutError: true}},
		{"no_gate_noise", backend.Options{NoGateNoise: true}},
		{"no_decay", backend.Options{NoDecay: true}},
		{"readout_only", backend.Options{NoGateNoise: true, NoDecay: true}},
	}
	for _, c := range cases {
		b.Run(c.label, func(b *testing.B) {
			m := core.NewMachine(device.IBMQMelbourne())
			m.Opt = c.opt
			job, err := core.NewJob(bench.Circuit, m)
			if err != nil {
				b.Fatal(err)
			}
			var pst float64
			for i := 0; i < b.N; i++ {
				counts, err := job.Baseline(2000, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				pst = metrics.PST(counts.Dist(), bench.Correct[0])
			}
			b.ReportMetric(pst, "pst")
		})
	}
}

// --- Microbenchmarks of the substrate ---

func BenchmarkStateVectorGHZ14(b *testing.B) {
	c := kernels.GHZ(14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Simulate()
	}
}

func BenchmarkBackendTrajectoryMelbourne(b *testing.B) {
	dev := device.IBMQMelbourne()
	bench := kernels.BV("bv-7", bitstring.MustParse("0111111"))
	m := core.NewMachine(dev)
	job, err := core.NewJob(bench.Circuit, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := job.Baseline(64, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadoutChannel(b *testing.B) {
	model := device.IBMQMelbourne().ReadoutModel()
	x := bitstring.MustParse("10110101011010")
	rng := rand.New(rand.NewSource(42))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		model.Apply(x, rng)
	}
}

func BenchmarkTranspileMelbourne(b *testing.B) {
	dev := device.IBMQMelbourne()
	c := kernels.GHZ(7)
	for i := 0; i < b.N; i++ {
		if _, err := transpile.Place(c, dev); err != nil {
			b.Fatal(err)
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func name(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

// BenchmarkRepeatability regenerates the §6.1 bias-repeatability
// experiment across calibration cycles.
func BenchmarkRepeatability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Repeatability(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.MeanCorrelation, "mean_rank_corr")
			b.ReportMetric(r.MinCorrelation, "min_rank_corr")
		}
	}
}

// BenchmarkMitigationComparison runs the extension experiment:
// Invert-and-Measure vs confusion-matrix mitigation.
func BenchmarkMitigationComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.MitigationComparison(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, row := range r.Rows {
				switch row.Policy {
				case "AIM":
					b.ReportMetric(row.PST, "aim_pst")
				case "matrix (full)":
					b.ReportMetric(row.PST, "matrix_pst")
				case "SIM + tensored":
					b.ReportMetric(row.PST, "composed_pst")
				}
			}
		}
	}
}

// BenchmarkAblationEDM compares a single mapping, EDM over 4 mappings,
// and EDM composed with SIM on a vulnerable BV workload.
func BenchmarkAblationEDM(b *testing.B) {
	dev := device.IBMQX4()
	bench := kernels.BV("bv-4B", bitstring.MustParse("1111"))
	m := core.NewMachine(dev)
	layouts, err := core.DiverseLayouts(bench.Circuit, m, 4, 51)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		label string
		run   func(shots int, seed int64) (float64, error)
	}{
		{"single_mapping", func(shots int, seed int64) (float64, error) {
			res, err := core.EDM(bench.Circuit, m, layouts[:1], shots, seed)
			if err != nil {
				return 0, err
			}
			return metrics.PST(res.Merged.Dist(), bench.Correct[0]), nil
		}},
		{"edm4", func(shots int, seed int64) (float64, error) {
			res, err := core.EDM(bench.Circuit, m, layouts, shots, seed)
			if err != nil {
				return 0, err
			}
			return metrics.PST(res.Merged.Dist(), bench.Correct[0]), nil
		}},
		{"edm4_sim", func(shots int, seed int64) (float64, error) {
			res, err := core.EDMWithSIM(bench.Circuit, m, layouts, shots, seed)
			if err != nil {
				return 0, err
			}
			return metrics.PST(res.Merged.Dist(), bench.Correct[0]), nil
		}},
	}
	for _, c := range cases {
		b.Run(c.label, func(b *testing.B) {
			var pst float64
			for i := 0; i < b.N; i++ {
				var err error
				if pst, err = c.run(2000, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pst, "pst")
		})
	}
}

// BenchmarkDensityExactGHZ measures the exact output distribution (one
// density-matrix evolution plus the closed-form readout channel) on the
// full ibmqx4 GHZ workload used by the cross-validation tests.
func BenchmarkDensityExactGHZ(b *testing.B) {
	dev := device.IBMQX4()
	c := circuitForDensityBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := backend.ExactDist(c, dev, backend.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func circuitForDensityBench() *circuit.Circuit {
	return circuit.New(5, "ghz-x4").H(0).CX(1, 0).CX(2, 1).CX(3, 2).CX(3, 4)
}

// BenchmarkAblationAllocation compares naive vs variability-aware
// allocation (the paper's baseline assumption, refs [26, 28]).
func BenchmarkAblationAllocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AllocationComparison(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.NaivePST, "naive_pst")
			b.ReportMetric(r.AwarePST, "aware_pst")
		}
	}
}

// BenchmarkAblationSchedule compares gate-time-only vs schedule-aware
// decoherence on the GHZ bias probe.
func BenchmarkAblationSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ScheduleAblation(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.GateOnlySkew, "gate_only_skew")
			b.ReportMetric(r.ScheduledSkew, "scheduled_skew")
		}
	}
}

// BenchmarkCrosstalkDetection measures the readout-crosstalk profiler on
// the machine with planted correlations.
func BenchmarkCrosstalkDetection(b *testing.B) {
	m := core.NewMachine(device.IBMQX4())
	prof := &core.Profiler{Machine: m, Layout: []int{0, 1, 2, 3, 4}}
	var maxExcess float64
	for i := 0; i < b.N; i++ {
		x, err := prof.Crosstalk(4000, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		maxExcess = x.MaxExcess()
	}
	b.ReportMetric(maxExcess, "max_excess")
}

// BenchmarkParallelBackend measures the worker-pool speedup on the
// melbourne trial loop.
func BenchmarkParallelBackend(b *testing.B) {
	dev := device.IBMQMelbourne()
	bench := kernels.BV("bv-7", bitstring.MustParse("0111111"))
	m := core.NewMachine(dev)
	job, err := core.NewJob(bench.Circuit, m)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(name("workers", workers), func(b *testing.B) {
			opt := backend.Options{Shots: 2048, Workers: workers}
			for i := 0; i < b.N; i++ {
				opt.Seed = int64(i)
				if _, err := backend.RunContext(context.Background(), job.Plan.Physical, dev, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSuite measures the orchestration speedup on the full
// benchmark suite (12 machine × benchmark cells fanned out on the job
// pool). Results are bit-identical across worker counts; only
// wall-clock changes.
func BenchmarkParallelSuite(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(name("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(i)
				cfg.Workers = workers
				if _, err := experiments.RunSuite(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaling runs the mitigation stack on the synthetic 16-qubit
// machine (AWCT profiling + AIM + reduced matrix correction).
func BenchmarkScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Scaling(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.AIMPST/maxf(r.BaselinePST, 1e-6), "aim_pst_gain")
		}
	}
}

// BenchmarkZNEComparison runs the gate-family × readout-family
// composition experiment (ZNE, SIM, and both).
func BenchmarkZNEComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ZNEComparison(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.Ideal-r.Raw, "raw_gap")
			b.ReportMetric(r.Ideal-r.ZNEPlus, "composed_gap")
		}
	}
}

// BenchmarkFigure8 regenerates the SIM mode-count comparison of Fig 8.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8(context.Background(), benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.SIM2, "sim2_pst")
			b.ReportMetric(r.SIM4, "sim4_pst")
		}
	}
}
