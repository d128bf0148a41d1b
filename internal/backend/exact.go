package backend

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
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

// runExact is the exact-channel engine: it evolves the density matrix
// through the plan (exactState: the whole plan, or only the steps after
// a shared prefix), then draws every shot from diag(ρ) through a CDF
// (one rng draw and an O(n) binary search per shot) and corrupts it
// with the compiled readout channel. ρ is only read here, since it may
// be a prefix shared with sibling runs. The outcome histogram is kept in
// a flat 2^n array until the end, so a run allocates the same whatever
// its shot count.
func runExact(ctx context.Context, p *plan, dev *device.Device, opt Options, readout *noise.CompiledReadout) (*dist.Counts, error) {
	n := p.c.NumQubits
	m, err := exactState(ctx, p, dev)
	if err != nil {
		return nil, err
	}
	d := 1 << uint(n)
	cdf := make([]float64, d)
	m.ProbabilitiesInto(cdf)
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

// exactState returns ρ after every step of p. When ctx carries a shared
// prefix that p begins with (WithSharedPrefix), it starts from the
// prefix's ρ: that matrix itself, read-only, when p has no steps after
// the prefix, else a copy with only p's remaining steps applied. The
// prefix ρ is bit-identical to what p's own first steps would evolve,
// so either way ρ is the one evolving p alone gives.
func exactState(ctx context.Context, p *plan, dev *device.Device) (*density.Matrix, error) {
	if h, ok := ctx.Value(sharedPrefixKey{}).(*sharedPrefix); ok {
		rho, k, err := h.evolved(ctx, p, dev)
		if err != nil {
			return nil, err
		}
		if rho != nil {
			if k == len(p.steps) {
				return rho, nil
			}
			m := rho.Clone()
			if err := p.evolve(ctx, m, p.steps[k:]); err != nil {
				return nil, err
			}
			return m, nil
		}
	}
	m := density.New(p.c.NumQubits)
	if err := p.evolve(ctx, m, p.steps); err != nil {
		return nil, err
	}
	return m, nil
}

// sharedPrefix is the handle WithSharedPrefix attaches: one placed
// program whose exact evolution the runs under one context share.
type sharedPrefix struct {
	c   *circuit.Circuit
	dev *device.Device
	opt Options

	mu sync.Mutex
	// own is c's noise placement and rho is ρ after own's first own.body
	// steps. Both are set together, only by a prefix evolution that
	// completed, and are read-only after.
	own *plan
	rho *density.Matrix
	// evolutions counts completed prefix evolutions, for tests.
	evolutions int
}

type sharedPrefixKey struct{}

// WithSharedPrefix returns a context under which the exact-engine runs of
// circuits that begin with c's ops, on dev, evolve the steps placed for
// c's ops once between them. SIM and AIM attach one per call
// (internal/core): their groups run one placed program under different
// inversion strings, which add only an X layer before measurement. The
// first such run to arrive evolves the prefix, under its own context;
// every run then copies that ρ and applies only its own remaining steps,
// the X layer and, with ScheduleAwareDecay, the final idle gaps the X
// layer moves. Each run still samples with its own seed, so its counts
// are byte-identical to the same run without the handle.
//
// A run uses the handle only if its circuit and device are c and dev
// (the same device, and c's ops at the head of its own) and its placed
// steps begin with the ones placed for c's ops under opt's noise
// switches; any other run evolves alone, so a handle attached for
// another program cannot change a result. The trajectory engine ignores
// the handle: its noise draws interleave with its sampling draws. A
// prefix evolution that fails, cancelled or panicking, stores nothing,
// and the next run evolves it again. The handle lives as long as the
// context, so attach it for one batch of runs, not for a process.
func WithSharedPrefix(ctx context.Context, c *circuit.Circuit, dev *device.Device, opt Options) context.Context {
	return context.WithValue(ctx, sharedPrefixKey{}, &sharedPrefix{c: c, dev: dev, opt: opt})
}

// evolved returns the shared prefix ρ and its length in steps when p
// begins with the handle's program, evolving the prefix under ctx if no
// run has yet. It returns a nil ρ, and no error, when p does not.
func (h *sharedPrefix) evolved(ctx context.Context, p *plan, dev *device.Device) (*density.Matrix, int, error) {
	if dev != h.dev || len(p.c.Ops) < len(h.c.Ops) || p.c.NumQubits != h.c.NumQubits {
		return nil, 0, nil
	}
	for i, op := range h.c.Ops {
		if !sameOp(op, p.c.Ops[i]) {
			return nil, 0, nil
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	own := h.own
	if own == nil {
		var err error
		if own, err = placeNoise(h.c, h.dev, h.opt); err != nil {
			return nil, 0, nil // the run evolves alone
		}
	}
	k := own.body
	if len(p.steps) < k || !slices.Equal(p.steps[:k], own.steps[:k]) {
		return nil, 0, nil
	}
	if h.rho == nil {
		m := density.New(own.c.NumQubits)
		if err := own.evolve(ctx, m, own.steps[:k]); err != nil {
			return nil, 0, err
		}
		h.own, h.rho = own, m
		h.evolutions++
	}
	return h.rho, k, nil
}

// sameOp reports whether a and b are the same circuit op.
func sameOp(a, b circuit.Op) bool {
	return a.Kind == b.Kind && a.Matrix == b.Matrix && a.Label == b.Label && slices.Equal(a.Qubits, b.Qubits)
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
