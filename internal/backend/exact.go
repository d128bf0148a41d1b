package backend

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/density"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/noise"
)

// exactMaxQubits is the widest register the exact engine runs on. One
// evolution costs O(ops·4^n). For a GHZ chain on a synthetic line
// device at 750 shots it takes 2.7 ms against 12.8 ms for a trajectory
// per shot at 8 qubits, but 63 ms against 2.0 ms for the 32-shot
// trajectories used at 10 qubits.
const exactMaxQubits = 8

// exactCheckEvery is how many shots the exact engine samples between
// context checks.
const exactCheckEvery = 1024

// useExact reports whether RunContext runs opt on an n-qubit register
// with the exact engine: only when the caller left ShotsPerTrajectory at
// its default and kept the fast path, the register is small, and the run
// draws at least one shot per basis state — below that, one evolution
// costs more than the trajectories it replaces.
func (o Options) useExact(n int) bool {
	return o.ShotsPerTrajectory == 0 && !o.NoFastPath && n <= exactMaxQubits && o.Shots >= 1<<uint(n)
}

// runExact is the exact-channel engine: it takes diag(ρ) after every
// step of the plan (exactDiag), then draws every shot from it through a
// CDF (one rng draw and an O(n) binary search per shot) and corrupts it
// with the compiled readout channel. The outcome histogram is kept in a
// flat 2^n array until the end, so a run allocates the same whatever its
// shot count.
func runExact(ctx context.Context, p *plan, opt Options, readout *noise.CompiledReadout) (*dist.Counts, error) {
	n := p.c.NumQubits
	cdf, err := p.exactDiag(ctx)
	if err != nil {
		return nil, err
	}
	d := len(cdf)
	var total float64
	for i, q := range cdf {
		// Round-off can leave a diagonal entry a hair below zero; the CDF
		// must stay non-decreasing for the binary search.
		if q > 0 {
			total += q
		}
		cdf[i] = total
	}
	hist := make([]int, d)
	rng := rand.New(rand.NewSource(opt.Seed))
	for shot := 0; shot < opt.Shots; shot++ {
		if shot%exactCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Scaling by the accumulated mass keeps u below the last CDF
		// entry even when round-off moved the trace off 1.
		u := rng.Float64() * total
		i := sort.Search(d, func(j int) bool { return u < cdf[j] })
		if i == d {
			i = d - 1
		}
		out := bitstring.New(uint64(i), n)
		if !opt.NoReadoutError {
			out = readout.Apply(out, rng)
		}
		hist[out.Uint64()]++
	}
	counts := dist.NewCounts(n)
	for i, k := range hist {
		counts.Add(bitstring.New(uint64(i), n), k)
	}
	return counts, nil
}

// exactDiag returns diag(ρ) after every step of p, in a slice the caller
// owns. It splits the plan at its diagonal-closed suffix, the trailing
// steps whose effect on diag(ρ) depends on diag(ρ) alone (diagClosed):
// for a SIM or AIM group, the inversion layer before measurement with
// its gate noise and, with ScheduleAwareDecay, the final idle gaps. The
// prefix's diagonal comes from the process-wide memo, or from evolving
// the density matrix through the prefix (prefixDiag), and the suffix is
// applied to a copy of it. The diagonal kernels repeat the matrix
// kernels' arithmetic, so the result is bit for bit the diagonal of ρ
// evolved through every step.
func (p *plan) exactDiag(ctx context.Context) (density.Diag, error) {
	cut := len(p.steps)
	for cut > 0 && p.diagClosed(p.steps[cut-1]) {
		cut--
	}
	prefix, err := p.prefixDiag(ctx, p.steps[:cut])
	if err != nil {
		return nil, err
	}
	d := append(density.Diag(nil), prefix...)
	p.evolveDiag(d, p.steps[cut:])
	return d, nil
}

// exactMemoCap bounds the prefix memo. An entry holds 2^n floats (2 KB
// at exactMaxQubits) and a key of some 11 bytes per noise step and 80
// per gate step, so a full memo of 8-qubit programs of a few hundred
// steps stays within a few MB. The programs one daemon serves — the
// suite benchmarks, their profile preparations, a client's repeated
// circuits — fill a small fraction of it.
const exactMemoCap = 256

// prefixMemo maps the content of an exact-engine prefix (prefixKey) to
// diag(ρ) after it. An entry is stored only after its evolution
// completed, and a slice in it is never written again. It is one per
// process, like a sync.Pool: which entries it holds changes how long a
// run takes, never its counts.
type prefixMemo struct {
	mu    sync.Mutex
	diags map[string][]float64
	// evolutions counts the prefix evolutions stored, for tests.
	evolutions int
}

var exactMemo = prefixMemo{diags: make(map[string][]float64)}

// prefixDiag returns diag(ρ) after steps, a prefix of p's steps: from the
// memo when a run has stored it, else by evolving ρ under ctx outside the
// memo's lock and storing the result. Runs that miss on one key at once
// each evolve it; their results are identical. The returned slice is
// shared, so the caller must not write it.
func (p *plan) prefixDiag(ctx context.Context, steps []step) ([]float64, error) {
	key := p.prefixKey(steps)
	exactMemo.mu.Lock()
	diag, ok := exactMemo.diags[string(key)]
	exactMemo.mu.Unlock()
	if ok {
		return diag, nil
	}
	m := density.New(p.c.NumQubits)
	if err := p.evolve(ctx, m, steps); err != nil {
		return nil, err
	}
	diag = m.Probabilities()
	exactMemo.mu.Lock()
	defer exactMemo.mu.Unlock()
	if _, ok := exactMemo.diags[string(key)]; !ok && len(exactMemo.diags) >= exactMemoCap {
		for k := range exactMemo.diags { // evict an arbitrary entry
			delete(exactMemo.diags, k)
			break
		}
	}
	exactMemo.diags[string(key)] = diag
	exactMemo.evolutions++
	return diag, nil
}

// prefixKey encodes what the evolution of steps depends on: the register
// width, each step's kind, qubits and probability bits, and each gate
// step's op kind, qubits and matrix bits. Every field has a fixed width
// or a length before it, so two step lists share a key only if they
// evolve the same ρ. Qubit indices fit a byte: the exact engine runs at
// most exactMaxQubits.
func (p *plan) prefixKey(steps []step) []byte {
	key := make([]byte, 0, 1+48*len(steps))
	key = append(key, byte(p.c.NumQubits))
	for _, s := range steps {
		key = append(key, byte(s.kind), byte(s.q0), byte(s.q1))
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(s.p))
		if s.kind != stepGate {
			continue
		}
		op := p.c.Ops[s.op]
		key = append(key, byte(op.Kind), byte(len(op.Qubits)))
		for _, q := range op.Qubits {
			key = append(key, byte(q))
		}
		for _, row := range op.Matrix {
			for _, z := range row {
				key = binary.LittleEndian.AppendUint64(key, math.Float64bits(real(z)))
				key = binary.LittleEndian.AppendUint64(key, math.Float64bits(imag(z)))
			}
		}
	}
	return key
}

// ExactDist returns the exact output distribution of c on dev under
// opt's noise switches: the distribution the exact engine samples, and
// the one the trajectory engine converges to as its shot count grows.
// It costs one density-matrix evolution, O(ops·4^n), so the register is
// limited to density.MaxQubits. Shots, Seed, ShotsPerTrajectory,
// Workers and NoFastPath play no part.
func ExactDist(c *circuit.Circuit, dev *device.Device, opt Options) (dist.Dist, error) {
	if c.NumQubits != dev.NumQubits {
		return dist.Dist{}, fmt.Errorf("backend: circuit register %d does not match device %s with %d qubits",
			c.NumQubits, dev.Name, dev.NumQubits)
	}
	if dev.NumQubits > density.MaxQubits {
		return dist.Dist{}, fmt.Errorf("backend: %s has %d qubits; the exact distribution supports up to %d",
			dev.Name, dev.NumQubits, density.MaxQubits)
	}
	if err := checkConnectivity(c, dev); err != nil {
		return dist.Dist{}, err
	}
	p, err := placeNoise(c, dev, opt)
	if err != nil {
		return dist.Dist{}, err
	}
	m := density.New(dev.NumQubits)
	if err := p.evolve(context.Background(), m, p.steps); err != nil {
		return dist.Dist{}, err
	}
	readout := dev.ReadoutModel()
	if opt.NoReadoutError {
		readout = &noise.ReadoutModel{PerQubit: make([]noise.ReadoutError, dev.NumQubits)}
	}
	return m.OutputDist(readout), nil
}
