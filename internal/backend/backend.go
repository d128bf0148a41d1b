// Package backend executes circuits on device models under the NISQ trial
// loop (paper Fig 3a): initialize, run the program, read the qubits, log
// the output, repeat for thousands of trials.
//
// The device's noise is placed once per run (placement.go): after every
// gate a depolarizing channel with the calibrated gate error, then T1
// amplitude damping on the operand qubits for the gate duration, plus
// optional schedule-aware idle relaxation. Readout is then corrupted by
// the device's classical readout channel — the asymmetric, possibly
// correlated process the paper characterizes and mitigates. Individual
// noise processes can be disabled for ablation studies.
//
// Two engines execute that placement. The trajectory engine samples it:
// each channel becomes a stochastic Pauli kick or damping jump on a state
// vector, and several shots may share one trajectory
// (ShotsPerTrajectory), since measurement sampling without collapse is
// equivalent to re-preparing the same noisy execution. The exact engine
// (exact.go) applies every channel exactly and draws each shot from
// diag(ρ). It evolves the density matrix only through the plan's prefix,
// the steps before its trailing run of diagonal-closed steps (X, CNOT,
// SWAP, CZ, depolarizing, amplitude damping), and applies that suffix to
// the diagonal alone. The prefix's diagonal is memoized process-wide by
// the prefix's content, so a program run again — a SIM or AIM group
// under another inversion string, which adds only an X layer before
// measurement, a repeated request, a profile preparation — evolves no
// density matrix at all. Its shots then go through a compiled sampler:
// a guide-table search of the CDF and a readout flip table with one row
// per true outcome, drawing from a copy of math/rand's generator
// (rng.go) called directly. It draws and compares exactly as
// rand.New(rand.NewSource(seed)), sort.Search and CompiledReadout.Apply
// would. RunContext picks the exact engine for
// small registers at shot counts where one O(4^n) evolution costs less
// than a trajectory per shot (see Options.ShotsPerTrajectory); both
// engines sample the same output distribution, but through different
// random streams. Runs on either engine take their generator, and the
// exact engine its sampling buffers, from one free list (runScratch), so
// no run allocates a generator.
//
// The trajectory engine simulates only the qubits the placement touches
// (plan.compact). A placed circuit often occupies a few of the device's
// qubits — the paper's melbourne benchmarks touch 6 to 8 of 14 — and the
// rest get no gate and no noise step, so they stay exactly |0⟩. Each
// trajectory then evolves 2^k amplitudes for the k touched qubits
// instead of 2^n, and each sampled index is scattered back to device
// width before the device-width readout channel. The counts are
// byte-identical to evolving the whole register, not merely close.
// Every device amplitude with an untouched qubit's bit set stays exactly
// zero, and every kernel pairs amplitudes that differ only in touched
// qubits, so each remaining amplitude is computed from the same
// operands. The touched qubits keep their device order, so the
// compact→device index map is monotone, and every norm and sampler
// running sum adds the same non-zero terms in the same order (the zeros
// add exactly 0.0). Each draw thus compares the same u against the same
// IEEE-754 partial sums, and a sampler round-off fallthrough still
// reports the device's all-ones state. The engine choice, the default
// ShotsPerTrajectory and the NoFastPath oracle stay at device width.
package backend

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/noise"
	"biasmit/internal/orchestrate"
	"biasmit/internal/quantum"
)

// Runner is the signature of RunContext: one circuit execution on one
// device under one set of options. Layers that sit between a caller and
// the backend — fault injection (internal/chaos) and retrying execution
// (internal/resilient) — implement and accept this type, so the whole
// execution path is composable: a core.Machine can run against the raw
// backend, a chaos-wrapped backend, or a retrying executor without any
// caller changing.
type Runner func(ctx context.Context, c *circuit.Circuit, dev *device.Device, opt Options) (*dist.Counts, error)

// TransientError marks a failure of the execution environment rather
// than of the request: the run may succeed if simply tried again. The
// retrying executor (internal/resilient) retries errors that wrap a
// TransientError; every other error — budget violations, qasm and
// transpile failures, context endings — is permanent and fails fast.
//
// The real hardware analogue is a queue hiccup, a calibration window, or
// a dropped connection; in this repo transient errors are produced by
// the fault injector (internal/chaos).
type TransientError struct {
	// Op names the phase that hiccuped (e.g. "run", "chaos").
	Op string
	// Err is the underlying cause, if any.
	Err error
}

func (e *TransientError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("backend: transient %s failure", e.Op)
	}
	return fmt.Sprintf("backend: transient %s failure: %v", e.Op, e.Err)
}

func (e *TransientError) Unwrap() error { return e.Err }

// MaxShots caps a single run's trial budget. SIM/AIM callers multiply
// per-group budgets by group counts (and experiment drivers multiply by
// scale factors); without a ceiling those products can overflow int and
// wrap silently. Budgets outside (0, MaxShots] are rejected with a
// *BudgetError.
const MaxShots = 1 << 40

// BudgetError reports a shot budget outside (0, MaxShots] — typically
// the result of an overflowing budget multiplication in a caller.
type BudgetError struct {
	// Shots is the offending budget. A negative value either arrived
	// negative (a wrapped multiplication) or marks a product that
	// MulShots refused to compute because it would overflow.
	Shots int
}

func (e *BudgetError) Error() string {
	if e.Shots <= 0 {
		return fmt.Sprintf("backend: shot budget %d is not positive (overflowing multiplication?)", e.Shots)
	}
	return fmt.Sprintf("backend: shot budget %d exceeds the %d maximum", e.Shots, MaxShots)
}

// CheckShots validates a trial budget, returning a *BudgetError when it
// lies outside (0, MaxShots].
func CheckShots(shots int) error {
	if shots <= 0 || shots > MaxShots {
		return &BudgetError{Shots: shots}
	}
	return nil
}

// MulShots multiplies a per-group budget by a group count with overflow
// checking — the guard SIM/AIM-style callers need before fanning a
// budget out. The product is validated against MaxShots.
func MulShots(shots, groups int) (int, error) {
	if shots <= 0 {
		return 0, &BudgetError{Shots: shots}
	}
	if groups <= 0 || shots > MaxShots/groups {
		return 0, &BudgetError{Shots: -1}
	}
	return shots * groups, nil
}

// Options configures a backend run.
type Options struct {
	// Shots is the number of trials (required, > 0).
	Shots int
	// Seed makes the run deterministic.
	Seed int64
	// ShotsPerTrajectory bounds how many shots reuse one noisy
	// trajectory, and its zero value selects the engine. Zero runs the
	// exact engine when the register has at most 8 qubits and the run
	// has at least 2^n shots (one density-matrix evolution then costs
	// less than a trajectory per shot); otherwise trajectories at a
	// size-dependent default batch (1 for ≤8 qubits, 32 beyond). Both
	// engines sample the same distribution, so the choice changes only
	// the random stream. A positive value always runs trajectories,
	// which is how tests pin the trajectory stream.
	ShotsPerTrajectory int
	// NoGateNoise disables depolarizing gate errors (ablation).
	NoGateNoise bool
	// NoDecay disables T1 amplitude damping during gates (ablation).
	NoDecay bool
	// NoReadoutError disables the classical readout channel (ablation).
	NoReadoutError bool
	// ScheduleAwareDecay additionally relaxes qubits through their idle
	// windows in the ASAP schedule (not only while gates act on them),
	// so poorly packed circuits lose high-Hamming-weight amplitude while
	// waiting for measurement. Ignored when NoDecay is set.
	ScheduleAwareDecay bool
	// Workers runs the trajectory trial loop across this many
	// goroutines, splitting the shot budget into per-worker chunks with
	// derived seeds. Results are deterministic for a fixed (Seed,
	// Workers) pair but differ between worker counts, since the random
	// streams are partitioned differently. Zero or one keeps the
	// sequential path. The exact engine ignores it: its evolution and
	// its sampling, a guide-table lookup and one draw per qubit per
	// shot, run on the calling goroutine.
	Workers int
	// IdleInversion inserts an X–X pair at the midpoint of every idle
	// window (requires ScheduleAwareDecay): the qubit spends half its
	// wait inverted, so T1 relaxation attacks |0⟩ and |1⟩ equally instead
	// of only draining |1⟩ — the paper's state-averaging philosophy
	// applied to idle decoherence rather than readout. The two extra X
	// gates pay their own gate-error and duration cost.
	IdleInversion bool
	// NoFastPath is a debug/verification knob: it disables the exact
	// engine, register compaction, the CDF batch sampler, the pooled
	// trajectory state, and the compiled readout channel, running the
	// original full-width, allocate-per-trajectory,
	// linear-scan-per-shot trial loop instead.
	// Against trajectories with the same ShotsPerTrajectory the results
	// are byte-identical — the fast path is stream-identical by
	// construction and the equality tests assert it — so the only
	// observable differences are time and allocations. The benchmark
	// harness uses this to record the naive baseline the fast path is
	// measured against.
	NoFastPath bool
}

func (o Options) withDefaults(numQubits int) Options {
	if o.ShotsPerTrajectory <= 0 {
		if numQubits <= 8 {
			o.ShotsPerTrajectory = 1
		} else {
			o.ShotsPerTrajectory = 32
		}
	}
	return o
}

// RunContext is the canonical entry point of the executor: it runs c on
// dev and returns the histogram of measured outcomes over all device
// qubits. The circuit must already be expressed on physical qubits: its
// register must match the device size, and every two-qubit gate must
// act on a coupled pair (use internal/transpile to map logical circuits
// first). It chooses the engine from its own inputs (see
// Options.ShotsPerTrajectory), so the result stays a pure function of
// (circuit, device, options). Both engines check ctx as they go — the
// trajectory loop between trajectory batches and parallel worker
// chunks, the exact engine between evolution steps and every 1024
// shots — so a long-running job stops soon after a cancellation or
// timeout. Every execution-path layer — chaos injection, resilient
// retries, the serving daemon — composes over this signature (see
// Runner).
func RunContext(ctx context.Context, c *circuit.Circuit, dev *device.Device, opt Options) (*dist.Counts, error) {
	if c.NumQubits != dev.NumQubits {
		return nil, fmt.Errorf("backend: circuit register %d does not match device %s with %d qubits",
			c.NumQubits, dev.Name, dev.NumQubits)
	}
	if err := CheckShots(opt.Shots); err != nil {
		return nil, err
	}
	if err := checkConnectivity(c, dev); err != nil {
		return nil, err
	}
	p, err := placeNoise(c, dev, opt)
	if err != nil {
		return nil, err
	}

	// Compile the readout channel once per run: Apply then corrupts each
	// shot against precomputed per-qubit flip thresholds instead of
	// rebuilding a flip-probability slice per shot.
	readout := dev.ReadoutModel().Compile()

	if opt.useExact(dev.NumQubits) {
		return runExact(ctx, p, opt, readout)
	}
	opt = opt.withDefaults(dev.NumQubits)
	if !opt.NoFastPath {
		p = p.compact()
	}
	if opt.Workers > 1 {
		return runParallel(ctx, p, opt, readout)
	}
	sc := acquireScratch(opt.Seed)
	defer releaseScratch(sc)
	counts := dist.NewCounts(dev.NumQubits)
	if err := runShots(ctx, p, opt, readout, opt.Shots, sc.rng, counts); err != nil {
		return nil, err
	}
	return counts, nil
}

// runScratch is what a run reuses from earlier runs: the generator every
// engine draws from and the exact engine's sampling buffers. Acquiring
// it seeds the generator, and the exact engine writes every buffer
// before it reads it, so nothing carries over from an earlier run, even
// one that panicked halfway.
type runScratch struct {
	src lfSource
	// rng is rand.New(&src), the generator the trajectory engine and
	// the readout channel's Apply draw from; the exact engine calls src
	// directly, on the same stream.
	rng   *rand.Rand
	cdf   []float64
	guide []int
	flips []float64
	hist  []int
}

// scratchFreeCap bounds how many released runScratch values wait for
// the next runs; a process on a few CPUs runs far fewer at once. Each
// holds the 4.9 KB generator and, after an 8-qubit exact run, some 22 KB
// of buffers.
const scratchFreeCap = 32

// scratchFree holds released runScratch values, the most recently
// released last, so a run takes the one whose memory is warmest. It is a
// free list rather than a sync.Pool because a pool's contents are not
// stable: under the race detector it drops a quarter of its Puts, and GC
// cycles empty it, so a run's allocations would vary from run to run.
var scratchFree struct {
	mu   sync.Mutex
	list []*runScratch
}

// acquireScratch returns a released runScratch, or a new one, whose
// generator draws what rand.New(rand.NewSource(seed)) would.
func acquireScratch(seed int64) *runScratch {
	var sc *runScratch
	scratchFree.mu.Lock()
	if n := len(scratchFree.list); n > 0 {
		sc = scratchFree.list[n-1]
		scratchFree.list = scratchFree.list[:n-1]
	}
	scratchFree.mu.Unlock()
	if sc == nil {
		sc = new(runScratch)
		sc.rng = rand.New(&sc.src)
	}
	sc.rng.Seed(seed)
	return sc
}

// releaseScratch hands sc to the next run, or to the GC when
// scratchFreeCap runs' worth already wait.
func releaseScratch(sc *runScratch) {
	scratchFree.mu.Lock()
	if len(scratchFree.list) < scratchFreeCap {
		scratchFree.list = append(scratchFree.list, sc)
	}
	scratchFree.mu.Unlock()
}

// runShots executes the trajectory trial loop sequentially into counts,
// stopping between trajectory batches if ctx ends.
//
// This is the hot path of every run the exact engine does not take:
// wide registers, small shot budgets, and explicit ShotsPerTrajectory.
// The fast path (default) evolves the compacted register of p (see
// plan.compact) in one pooled state vector for the whole loop,
// re-preparing it in place per trajectory, samples each trajectory
// batch through a CDF built once per trajectory (O(2^n) once + O(n)
// binary search per shot) instead of linear-scanning 2^n amplitudes on
// every shot, and maps each sampled index to its device outcome
// (plan.outcome). Compaction, the CDF sampler and the compiled readout
// channel are all stream-identical to the naive operations — same rng
// draws, same comparisons, same tie semantics — so the recorded counts
// are byte-identical to Options.NoFastPath (asserted by
// TestFastPathMatchesNaive and the fuzz suite in internal/quantum).
func runShots(ctx context.Context, p *plan, opt Options,
	readout *noise.CompiledReadout, shots int, rng *rand.Rand, counts *dist.Counts) error {
	if opt.NoFastPath {
		return runShotsNaive(ctx, p, opt, readout.Model(), shots, rng, counts)
	}
	state := quantum.AcquireState(p.c.NumQubits)
	var sampler *quantum.Sampler
	defer func() {
		// A panic mid-trajectory (chaos injection, a faulted gate)
		// leaves these buffers in an unknown state: drop them for the
		// GC instead of pooling them, then let the panic continue to
		// the orchestrator's recovery. Pooling a torn buffer would
		// hand a corrupted state vector to an unrelated future run.
		if r := recover(); r != nil {
			panic(r)
		}
		quantum.ReleaseState(state)
		if sampler != nil {
			quantum.ReleaseSampler(sampler)
		}
	}()
	remaining := shots
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch := opt.ShotsPerTrajectory
		if batch > remaining {
			batch = remaining
		}
		p.runTrajectory(state, rng)
		if batch == 1 {
			// One draw amortizes nothing: the linear scan inspects half
			// the amplitudes on average, building the CDF touches all of
			// them. Same stream either way; keep the cheaper scan.
			out := p.outcome(state.SampleIndex(rng))
			if !opt.NoReadoutError {
				out = readout.Apply(out, rng)
			}
			counts.Add(out, 1)
			remaining--
			continue
		}
		if sampler == nil {
			sampler = quantum.AcquireSampler(state)
		} else {
			sampler.Reset(state)
		}
		for i := 0; i < batch; i++ {
			out := p.outcome(sampler.SampleIndex(rng))
			if !opt.NoReadoutError {
				out = readout.Apply(out, rng)
			}
			counts.Add(out, 1)
		}
		remaining -= batch
	}
	return nil
}

// runShotsNaive is the pre-optimization trial loop, kept verbatim as the
// verification oracle and benchmark baseline for the fast path: a fresh
// 2^n state per trajectory, an O(2^n) linear scan per shot, and the
// uncompiled readout channel per shot.
func runShotsNaive(ctx context.Context, p *plan, opt Options,
	readout *noise.ReadoutModel, shots int, rng *rand.Rand, counts *dist.Counts) error {
	remaining := shots
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch := opt.ShotsPerTrajectory
		if batch > remaining {
			batch = remaining
		}
		state := quantum.NewState(p.c.NumQubits)
		p.runTrajectory(state, rng)
		for i := 0; i < batch; i++ {
			out := state.Sample(rng)
			if !opt.NoReadoutError {
				out = readout.Apply(out, rng)
			}
			counts.Add(out, 1)
		}
		remaining -= batch
	}
	return nil
}

// runParallel fans the trial budget out across opt.Workers goroutines,
// each with a seed derived from (opt.Seed, worker index), and merges the
// per-worker histograms in worker order so the result is a pure function
// of (circuit, device, options).
func runParallel(ctx context.Context, p *plan, opt Options, readout *noise.CompiledReadout) (*dist.Counts, error) {
	workers := opt.Workers
	if workers > opt.Shots {
		workers = opt.Shots
	}
	chunk := opt.Shots / workers
	rem := opt.Shots % workers
	shotsFor := make([]int, workers)
	for w := range shotsFor {
		shotsFor[w] = chunk
		if w < rem {
			shotsFor[w]++
		}
	}
	partial, err := orchestrate.Map(ctx, workers, shotsFor,
		func(ctx context.Context, w, shots int) (*dist.Counts, error) {
			local := dist.NewCounts(p.width)
			sc := acquireScratch(orchestrate.DeriveSeed(opt.Seed, w))
			defer releaseScratch(sc)
			if err := runShots(ctx, p, opt, readout, shots, sc.rng, local); err != nil {
				return nil, err
			}
			return local, nil
		})
	if err != nil {
		return nil, err
	}
	counts := dist.NewCounts(p.width)
	for _, part := range partial {
		counts.Merge(part)
	}
	return counts, nil
}

// checkConnectivity verifies every two-qubit op acts on a coupled pair.
func checkConnectivity(c *circuit.Circuit, dev *device.Device) error {
	for i, op := range c.Ops {
		if !op.IsTwoQubit() {
			continue
		}
		if !dev.Connected(op.Qubits[0], op.Qubits[1]) {
			return fmt.Errorf("backend: op %d (%s) acts on uncoupled qubits %d,%d of %s",
				i, op.Label, op.Qubits[0], op.Qubits[1], dev.Name)
		}
	}
	return nil
}

// RunIdeal returns the exact error-free output distribution of c — the
// reference the paper calls the "ideal quantum computer" (Fig 3b). Cost
// is one state-vector simulation. Callers that evaluate it in loops
// (the QAOA angle optimizer runs one per objective evaluation) pay no
// per-call 2^n allocations: the state and probability buffers come from
// the pools in internal/quantum.
func RunIdeal(c *circuit.Circuit) dist.Dist {
	state := quantum.AcquireState(c.NumQubits)
	var probs []float64
	defer func() {
		// As in runShots: a panic mid-simulation abandons the buffers
		// to the GC rather than pooling possibly-torn contents.
		if r := recover(); r != nil {
			panic(r)
		}
		quantum.ReleaseState(state)
		if probs != nil {
			quantum.ReleaseProbs(c.NumQubits, probs)
		}
	}()
	c.SimulateInto(state)
	probs = quantum.AcquireProbs(c.NumQubits)
	state.ProbabilitiesInto(probs)
	d := dist.NewDist(c.NumQubits)
	for i, p := range probs {
		if p > 1e-15 {
			d.P[bitstring.New(uint64(i), c.NumQubits)] = p
		}
	}
	return d
}
