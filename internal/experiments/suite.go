package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"biasmit/internal/bitstring"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/kernels"
	"biasmit/internal/maxcut"
	"biasmit/internal/metrics"
	"biasmit/internal/orchestrate"
	"biasmit/internal/quantum"
	"biasmit/internal/report"
)

// PolicyMetrics bundles the reliability metrics of one policy's output.
type PolicyMetrics struct {
	PST  float64
	IST  float64
	ROCA int
}

// evaluate scores an output log the way the paper does: PST pools every
// equivalent correct answer (a QAOA cut and its complement, §4.2.1),
// while IST and ROCA track the published optimum string alone — on a
// biased machine a high-weight optimum can be outranked even by its own
// low-weight complement, which is exactly the masking the paper reports
// (Table 2, Fig 9).
func evaluate(d dist.Dist, correct []bitstring.Bits) PolicyMetrics {
	return PolicyMetrics{
		PST:  metrics.PSTEquiv(d, correct...),
		IST:  metrics.IST(d, correct[0]),
		ROCA: metrics.ROCA(d, correct[0]),
	}
}

// SuiteRow is one machine × benchmark evaluation across all three
// policies.
type SuiteRow struct {
	Machine   string
	Benchmark string
	Baseline  PolicyMetrics
	SIM       PolicyMetrics
	AIM       PolicyMetrics
}

// SuiteResult is the shared evaluation behind Fig 10, Fig 14 and
// Table 5: the paper's benchmark suite run under baseline, SIM, and AIM
// on all three machines.
type SuiteResult struct {
	Rows []SuiteRow
}

// suitePlan lists which benchmarks run on which machine, following the
// paper: the 4-bit benchmarks on the two 5-qubit machines, the scaled
// ones on melbourne.
func suitePlan() map[string][]string {
	return map[string][]string{
		"ibmqx2":         {"bv-4A", "bv-4B", "qaoa-4A", "qaoa-4B"},
		"ibmqx4":         {"bv-4A", "bv-4B", "qaoa-4A", "qaoa-4B"},
		"ibmq-melbourne": {"bv-6", "bv-7", "qaoa-6", "qaoa-7"},
	}
}

// suiteBenchmarks builds each suite benchmark once, on first use: the
// QAOA angle search takes up to tens of milliseconds, and the daemon
// resolves a benchmark on every request, result-cache hits included.
var suiteBenchmarks = func() map[string]func() (kernels.Benchmark, error) {
	m := make(map[string]func() (kernels.Benchmark, error))
	for _, names := range suitePlan() {
		for _, name := range names {
			m[name] = sync.OnceValues(func() (kernels.Benchmark, error) { return buildBenchmark(name) })
		}
	}
	return m
}()

// BenchmarkByName returns a benchmark by name: one of the paper's suite
// benchmarks by its Table 3 identifier (bv-4A … qaoa-7), or one of the
// shorthands bv:<key> (Bernstein-Vazirani with that key), prep:<bits>
// (a basis-state preparation) and ghz-<n>. Shared with cmd/mitigate and
// the daemon. Each call gets its own copy of the circuit and the correct
// outputs, so no caller can alter the memoized suite instances.
func BenchmarkByName(name string) (kernels.Benchmark, error) {
	switch {
	case strings.HasPrefix(name, "bv:"):
		key, err := shorthandBits(name[len("bv:"):], 1) // plus the ancilla
		if err != nil {
			return kernels.Benchmark{}, fmt.Errorf("bad bv key: %w", err)
		}
		return kernels.BV(name, key), nil
	case strings.HasPrefix(name, "prep:"):
		b, err := shorthandBits(name[len("prep:"):], 0)
		if err != nil {
			return kernels.Benchmark{}, fmt.Errorf("bad prep state: %w", err)
		}
		return kernels.Benchmark{Name: name, Circuit: kernels.BasisPrep(b), Correct: []bitstring.Bits{b}}, nil
	case strings.HasPrefix(name, "ghz-"):
		n, err := strconv.Atoi(name[len("ghz-"):])
		if err != nil || n < 1 || n > quantum.MaxQubits {
			return kernels.Benchmark{}, fmt.Errorf("bad ghz size in %q", name)
		}
		return kernels.Benchmark{Name: name, Circuit: kernels.GHZ(n),
			Correct: []bitstring.Bits{bitstring.Zeros(n), bitstring.Ones(n)}}, nil
	}
	build, ok := suiteBenchmarks[name]
	if !ok {
		return kernels.Benchmark{}, fmt.Errorf("experiments: unknown benchmark %q", name)
	}
	b, err := build()
	if err != nil {
		return kernels.Benchmark{}, err
	}
	b.Circuit = b.Circuit.Clone()
	b.Correct = append([]bitstring.Bits(nil), b.Correct...)
	return b, nil
}

// shorthandBits parses the bit string of a bv: or prep: shorthand,
// whose circuit has extra qubits beside those bits and must fit the
// simulator.
func shorthandBits(s string, extra int) (bitstring.Bits, error) {
	b, err := bitstring.Parse(s)
	if err == nil && b.Width()+extra > quantum.MaxQubits {
		err = fmt.Errorf("%d bits need %d qubits, above the simulator's %d", b.Width(), b.Width()+extra, quantum.MaxQubits)
	}
	return b, err
}

// buildBenchmark builds a suite benchmark; for QAOA that runs the angle
// search.
func buildBenchmark(name string) (kernels.Benchmark, error) {
	switch name {
	case "bv-4A":
		return kernels.BV(name, bitstring.MustParse("0111")), nil
	case "bv-4B":
		return kernels.BV(name, bitstring.MustParse("1111")), nil
	case "bv-6":
		return kernels.BV(name, bitstring.MustParse("011111")), nil
	case "bv-7":
		return kernels.BV(name, bitstring.MustParse("0111111")), nil
	case "qaoa-4A", "qaoa-4B", "qaoa-6", "qaoa-7":
		pg, err := maxcut.Table3Graph(name)
		if err != nil {
			return kernels.Benchmark{}, err
		}
		p := 2
		if name == "qaoa-4A" {
			p = 1
		}
		return kernels.QAOA(name, pg, p), nil
	}
	return kernels.Benchmark{}, fmt.Errorf("experiments: unknown benchmark %q", name)
}

// profileRBMS learns the machine's measurement-strength profile for the
// job's output register: brute force on the 5-qubit machines, AWCT
// (window 4, overlap 2) on melbourne, as in the paper (§6.2.1).
func profileRBMS(ctx context.Context, job *core.Job, cfg Config, seed int64) (core.RBMS, error) {
	prof := job.Profiler()
	if len(prof.Layout) <= 5 {
		return prof.BruteForceContext(ctx, cfg.shots(4096), seed)
	}
	return prof.AWCTContext(ctx, 4, 2, cfg.shots(16000), seed)
}

// suiteCell is one machine × benchmark evaluation unit of RunSuite.
type suiteCell struct {
	dev      *device.Device
	name     string
	seedBase int64
}

// RunSuite executes the full benchmark suite under the three policies.
// The machine × benchmark cells are independent and run on cfg.Workers
// goroutines; each cell's seed base depends only on its (machine,
// benchmark) position, so the table is bit-identical at every worker
// count.
func RunSuite(ctx context.Context, cfg Config) (*SuiteResult, error) {
	shots := cfg.shots(32000)
	var cells []suiteCell
	machineIdx := int64(0)
	for _, dev := range device.AllMachines() {
		for bi, name := range suitePlan()[dev.Name] {
			cells = append(cells, suiteCell{
				dev:      dev,
				name:     name,
				seedBase: cfg.Seed + 1000*machineIdx + 100*int64(bi),
			})
		}
		machineIdx++
	}
	rows, err := orchestrate.Map(ctx, cfg.workers(), cells,
		func(ctx context.Context, _ int, cell suiteCell) (SuiteRow, error) {
			bench, err := BenchmarkByName(cell.name)
			if err != nil {
				return SuiteRow{}, err
			}
			job, err := core.NewJob(bench.Circuit, cfg.machine(cell.dev))
			if err != nil {
				return SuiteRow{}, fmt.Errorf("experiments: %s on %s: %w", cell.name, cell.dev.Name, err)
			}
			base, err := job.BaselineContext(ctx, shots, cell.seedBase+1)
			if err != nil {
				return SuiteRow{}, err
			}
			sim, err := core.SIM4Context(ctx, job, shots, cell.seedBase+2)
			if err != nil {
				return SuiteRow{}, err
			}
			rbms, err := profileRBMS(ctx, job, cfg, cell.seedBase+3)
			if err != nil {
				return SuiteRow{}, err
			}
			aim, err := core.AIMContext(ctx, job, rbms, core.AIMConfig{}, shots, cell.seedBase+4)
			if err != nil {
				return SuiteRow{}, err
			}
			return SuiteRow{
				Machine:   cell.dev.Name,
				Benchmark: cell.name,
				Baseline:  evaluate(base.Dist(), bench.Correct),
				SIM:       evaluate(sim.Merged.Dist(), bench.Correct),
				AIM:       evaluate(aim.Merged.Dist(), bench.Correct),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &SuiteResult{Rows: rows}, nil
}

// Figure10 renders the SIM part of the suite: PST of SIM normalized to
// the baseline per machine × benchmark (paper: up to 2X, largest on
// ibmqx4).
func (r *SuiteResult) Figure10() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rel := ratioOrInf(row.SIM.PST, row.Baseline.PST)
		rows = append(rows, []string{
			row.Machine, row.Benchmark,
			report.Pct(row.Baseline.PST), report.Pct(row.SIM.PST), rel,
		})
	}
	return report.Table([]string{"machine", "benchmark", "baseline PST", "SIM PST", "SIM/baseline"}, rows)
}

// Figure14 renders the SIM and AIM PST improvements normalized to the
// baseline (paper: SIM up to 2X, AIM up to 3X).
func (r *SuiteResult) Figure14() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Machine, row.Benchmark,
			report.Pct(row.Baseline.PST),
			ratioOrInf(row.SIM.PST, row.Baseline.PST),
			ratioOrInf(row.AIM.PST, row.Baseline.PST),
		})
	}
	return report.Table([]string{"machine", "benchmark", "baseline PST", "SIM/baseline", "AIM/baseline"}, rows)
}

// table5Paper holds the paper's published IST values for annotation.
// The melbourne and ibmqx4-QAOA rows extract cleanly from the paper; the
// ibmqx4 BV-4A row is anchored by §7.1's prose (0.46 → 2.85 → 10.38).
// The remaining ibmqx2/ibmqx4 cells are a best-effort reconstruction of a
// garbled PDF table region and are marked "~".
var table5Paper = map[string][3]string{
	"ibmqx2/bv-4A":          {"~0.9", "~1.22", "~1.12"},
	"ibmqx2/bv-4B":          {"~0.86", "~1.25", "~1.83"},
	"ibmqx2/qaoa-4A":        {"~0.73", "~1.27", "~1.32"},
	"ibmqx2/qaoa-4B":        {"~0.72", "-", "-"},
	"ibmqx4/bv-4A":          {"0.46", "2.85", "10.38"},
	"ibmqx4/bv-4B":          {"~0.96", "~4.8", "~5.7"},
	"ibmqx4/qaoa-4A":        {"0.82", "1.94", "2.03"},
	"ibmqx4/qaoa-4B":        {"0.72", "2.67", "1.98"},
	"ibmq-melbourne/bv-6":   {"0.70", "0.93", "1.02"},
	"ibmq-melbourne/bv-7":   {"0.62", "0.84", "1.09"},
	"ibmq-melbourne/qaoa-6": {"0.23", "0.72", "0.86"},
	"ibmq-melbourne/qaoa-7": {"0.18", "0.36", "0.78"},
}

// Table5 renders the IST of every policy with the paper's values.
func (r *SuiteResult) Table5() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		paper := table5Paper[row.Machine+"/"+row.Benchmark]
		rows = append(rows, []string{
			row.Machine, row.Benchmark,
			paper[0], report.F(row.Baseline.IST),
			paper[1], report.F(row.SIM.IST),
			paper[2], report.F(row.AIM.IST),
		})
	}
	return report.Table(
		[]string{"machine", "benchmark", "paper base", "base IST", "paper SIM", "SIM IST", "paper AIM", "AIM IST"},
		rows,
	)
}

func ratioOrInf(num, den float64) string {
	if den == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", num/den)
}

// MeanImprovement returns the geometric-mean-free average PST improvement
// of each policy over the baseline across all rows, for the shape
// assertions in tests (SIM > 1, AIM > SIM on average).
func (r *SuiteResult) MeanImprovement() (sim, aim float64) {
	n := 0
	for _, row := range r.Rows {
		if row.Baseline.PST == 0 {
			continue
		}
		sim += row.SIM.PST / row.Baseline.PST
		aim += row.AIM.PST / row.Baseline.PST
		n++
	}
	if n > 0 {
		sim /= float64(n)
		aim /= float64(n)
	}
	return sim, aim
}
