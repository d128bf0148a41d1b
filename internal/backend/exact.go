package backend

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

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
// once through the plan, then draws every shot from diag(ρ) through a
// CDF (one rng draw and an O(n) binary search per shot) and corrupts it
// with the compiled readout channel. The outcome histogram is kept in a
// flat 2^n array until the end, so a run allocates the same whatever its
// shot count.
func runExact(ctx context.Context, p *plan, opt Options, readout *noise.CompiledReadout) (*dist.Counts, error) {
	n := p.c.NumQubits
	m := density.New(n)
	if err := p.evolve(ctx, m); err != nil {
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
	if err := p.evolve(context.Background(), m); err != nil {
		return dist.Dist{}, err
	}
	readout := dev.ReadoutModel()
	if opt.NoReadoutError {
		readout = &noise.ReadoutModel{PerQubit: make([]noise.ReadoutError, dev.NumQubits)}
	}
	return m.OutputDist(readout), nil
}
