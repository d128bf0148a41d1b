package core

import (
	"context"
	"fmt"
	"math"

	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/kernels"
	"biasmit/internal/metrics"
	"biasmit/internal/orchestrate"
)

// RBMS is the Relative Basis Measurement Strength function of a logical
// register on a machine (paper §6.2.1, Appendix A): for every basis
// state, how reliably it can be measured. Values are on an arbitrary
// positive scale; use Relative or NormalizeSum before comparing curves.
type RBMS struct {
	Width    int
	Strength []float64 // indexed by packed basis value
}

// NewRBMS wraps a per-state strength series.
func NewRBMS(width int, strength []float64) (RBMS, error) {
	if len(strength) != 1<<uint(width) {
		return RBMS{}, fmt.Errorf("core: strength series length %d for width %d", len(strength), width)
	}
	for i, s := range strength {
		if s < 0 || math.IsNaN(s) {
			return RBMS{}, fmt.Errorf("core: invalid strength %v at state %d", s, i)
		}
	}
	return RBMS{Width: width, Strength: append([]float64(nil), strength...)}, nil
}

// Of returns the strength of basis state b.
func (r RBMS) Of(b bitstring.Bits) float64 {
	if b.Width() != r.Width {
		panic(fmt.Sprintf("core: state width %d for RBMS width %d", b.Width(), r.Width))
	}
	return r.Strength[b.Uint64()]
}

// Relative rescales so the strongest state has strength 1 — the
// normalization of Figs 4, 5 and 11.
func (r RBMS) Relative() RBMS {
	return RBMS{Width: r.Width, Strength: metrics.Relative(r.Strength)}
}

// NormalizeSum rescales to unit total mass — the normalization of the
// Fig 15 validation curves.
func (r RBMS) NormalizeSum() RBMS {
	var sum float64
	for _, s := range r.Strength {
		sum += s
	}
	out := make([]float64, len(r.Strength))
	if sum > 0 {
		for i, s := range r.Strength {
			out[i] = s / sum
		}
	}
	return RBMS{Width: r.Width, Strength: out}
}

// StrongestState returns the basis state with the highest strength,
// breaking ties toward the numerically smallest state. AIM maps likely
// outputs onto this state.
func (r RBMS) StrongestState() bitstring.Bits {
	best := 0
	for i, s := range r.Strength {
		if s > r.Strength[best] {
			best = i
		}
	}
	return bitstring.New(uint64(best), r.Width)
}

// MSE returns the mean squared error between two sum-normalized RBMS
// curves — the paper's ESCT validation metric (within 5% in Fig 15).
func (r RBMS) MSE(o RBMS) (float64, error) {
	if r.Width != o.Width {
		return 0, fmt.Errorf("core: RBMS widths %d and %d differ", r.Width, o.Width)
	}
	return metrics.MSE(r.NormalizeSum().Strength, o.NormalizeSum().Strength)
}

// HammingCorrelation returns the Pearson correlation between strength and
// Hamming weight (paper: −0.93 on ibmqx2; weak on ibmqx4).
func (r RBMS) HammingCorrelation() (float64, error) {
	return metrics.Pearson(metrics.HammingWeightSeries(r.Width), r.Strength)
}

// Profiler measures the RBMS of a specific logical register placement on
// a machine. It runs its characterization circuits on exactly the
// physical qubits that the application's outputs occupy, so the learned
// profile matches what the application will experience.
type Profiler struct {
	Machine *Machine
	Layout  []int // physical qubit holding each logical bit
}

// Profiler returns a profiler bound to the job's measurement-time layout.
func (j *Job) Profiler() *Profiler {
	return &Profiler{Machine: j.Machine, Layout: append([]int(nil), j.Plan.FinalLayout...)}
}

func (p *Profiler) width() int { return len(p.Layout) }

// BruteForceContext measures every basis state directly (paper §3.1,
// Fig 11a): prepare b, measure, and count exact matches. Cost grows as
// O(2^n) preparations, which is why the paper reserves it for 5-qubit
// machines. The 2^n basis-state preparations are independent jobs and
// run on Machine.Workers goroutines; each state's seed is derived from
// (seed, state), so the profile is bit-identical at every worker count.
func (p *Profiler) BruteForceContext(ctx context.Context, shotsPerState int, seed int64) (RBMS, error) {
	n := p.width()
	if n > 16 {
		return RBMS{}, fmt.Errorf("core: brute-force characterization of %d qubits is intractable", n)
	}
	if _, err := backend.MulShots(shotsPerState, 1<<uint(n)); err != nil {
		return RBMS{}, fmt.Errorf("core: brute-force budget (%d shots × %d states): %w", shotsPerState, 1<<uint(n), err)
	}
	strength, err := orchestrate.Map(ctx, p.Machine.workers(), bitstring.All(n),
		func(ctx context.Context, _ int, b bitstring.Bits) (float64, error) {
			job, err := NewJobWithLayout(kernels.BasisPrep(b), p.Machine, p.Layout)
			if err != nil {
				return 0, err
			}
			counts, err := job.BaselineContext(ctx, shotsPerState, deriveSeed(seed, int(b.Uint64())))
			if err != nil {
				return 0, err
			}
			return float64(counts.Get(b)) / float64(shotsPerState), nil
		})
	if err != nil {
		return RBMS{}, err
	}
	return NewRBMS(n, strength)
}

// ESCTContext is the Equal-Superposition Characterization Technique
// (Appendix A): prepare H^⊗n once, measure many times, and use each basis
// state's relative frequency as its relative strength. One circuit probes
// all 2^n states, at the cost of a small cross-talk floor from misreads
// of neighbouring states.
func (p *Profiler) ESCTContext(ctx context.Context, totalShots int, seed int64) (RBMS, error) {
	n := p.width()
	if err := backend.CheckShots(totalShots); err != nil {
		return RBMS{}, fmt.Errorf("core: ESCT budget: %w", err)
	}
	job, err := NewJobWithLayout(kernels.UniformSuperposition(n), p.Machine, p.Layout)
	if err != nil {
		return RBMS{}, err
	}
	counts, err := job.BaselineContext(ctx, totalShots, seed)
	if err != nil {
		return RBMS{}, err
	}
	strength := make([]float64, 1<<uint(n))
	for _, b := range counts.Outcomes() {
		strength[b.Uint64()] = float64(counts.Get(b)) / float64(totalShots)
	}
	return NewRBMS(n, strength)
}

// AWCTContext is the Approximate Windowed Characterization Technique
// (Appendix A): ESCT is run over sliding windows of windowSize qubits
// with the given overlap, and the window estimates are stitched into a
// full profile, so trials scale as O(2^m) instead of O(2^N).
//
// Stitching uses the standard overlapping-marginal (junction-tree)
// composition: in log space the full strength is the sum of window
// strengths minus the overlap marginals, which double-counted the shared
// qubits. The sliding windows are independent jobs and run on
// Machine.Workers goroutines; each window's seed is derived from (seed,
// window start), so the stitched profile is bit-identical at every
// worker count.
func (p *Profiler) AWCTContext(ctx context.Context, windowSize, overlap, shotsPerWindow int, seed int64) (RBMS, error) {
	n := p.width()
	if windowSize < 2 || windowSize > n {
		return RBMS{}, fmt.Errorf("core: window size %d out of range [2,%d]", windowSize, n)
	}
	if overlap < 0 || overlap >= windowSize {
		return RBMS{}, fmt.Errorf("core: overlap %d out of range [0,%d)", overlap, windowSize)
	}
	step := windowSize - overlap
	if step == 0 {
		return RBMS{}, fmt.Errorf("core: zero window step")
	}
	var starts []int
	for start := 0; ; start += step {
		if start+windowSize > n {
			start = n - windowSize // clamp the final window to the register end
		}
		starts = append(starts, start)
		if start+windowSize >= n {
			break
		}
	}
	if _, err := backend.MulShots(shotsPerWindow, len(starts)); err != nil {
		return RBMS{}, fmt.Errorf("core: AWCT budget (%d shots × %d windows): %w", shotsPerWindow, len(starts), err)
	}

	type window struct {
		start, size int
		freq        []float64 // per window-pattern relative frequency
	}
	windows, err := orchestrate.Map(ctx, p.Machine.workers(), starts,
		func(ctx context.Context, _, start int) (window, error) {
			freq, err := p.windowESCT(ctx, start, windowSize, shotsPerWindow, deriveSeed(seed, start))
			if err != nil {
				return window{}, err
			}
			return window{start: start, size: windowSize, freq: freq}, nil
		})
	if err != nil {
		return RBMS{}, err
	}

	// Log-space stitch with floors against unobserved patterns.
	const floor = 1e-9
	logStrength := make([]float64, 1<<uint(n))
	for _, x := range bitstring.All(n) {
		var logS float64
		for wi, w := range windows {
			pat := x.Slice(w.start, w.start+w.size)
			logS += math.Log(math.Max(w.freq[pat.Uint64()], floor))
			if wi > 0 {
				prev := windows[wi-1]
				lo := w.start
				hi := prev.start + prev.size
				if hi > lo { // overlap region shared with the previous window
					marg := marginal(prev.freq, prev.size, lo-prev.start, hi-prev.start)
					opat := x.Slice(lo, hi)
					logS -= math.Log(math.Max(marg[opat.Uint64()], floor))
				}
			}
		}
		logStrength[x.Uint64()] = logS
	}
	// Exponentiate relative to the max for numeric stability.
	maxLog := math.Inf(-1)
	for _, l := range logStrength {
		if l > maxLog {
			maxLog = l
		}
	}
	strength := make([]float64, len(logStrength))
	for i, l := range logStrength {
		strength[i] = math.Exp(l - maxLog)
	}
	return NewRBMS(n, strength)
}

// windowESCT runs a uniform superposition over logical bits
// [start, start+size) (other logical bits held at |0⟩) and returns the
// relative frequency of each window pattern.
func (p *Profiler) windowESCT(ctx context.Context, start, size, shots int, seed int64) ([]float64, error) {
	n := p.width()
	// Superposition only over the window qubits; the rest stay |0⟩.
	c := kernels.BasisPrep(bitstring.Zeros(n))
	for q := start; q < start+size; q++ {
		c.H(q)
	}
	c.Name = fmt.Sprintf("awct-window-%d", start)
	job, err := NewJobWithLayout(c, p.Machine, p.Layout)
	if err != nil {
		return nil, err
	}
	counts, err := job.BaselineContext(ctx, shots, seed)
	if err != nil {
		return nil, err
	}
	freq := make([]float64, 1<<uint(size))
	for _, b := range counts.Outcomes() {
		pat := b.Slice(start, start+size)
		freq[pat.Uint64()] += float64(counts.Get(b)) / float64(shots)
	}
	return freq, nil
}

// marginal sums a window-pattern frequency table over all bits outside
// [lo, hi), returning the marginal table over the kept bits.
func marginal(freq []float64, size, lo, hi int) []float64 {
	out := make([]float64, 1<<uint(hi-lo))
	for v, f := range freq {
		kept := bitstring.New(uint64(v), size).Slice(lo, hi)
		out[kept.Uint64()] += f
	}
	return out
}
