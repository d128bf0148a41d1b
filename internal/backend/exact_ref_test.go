package backend

import (
	"context"
	"math/rand"
	"sort"

	"biasmit/internal/bitstring"
	"biasmit/internal/dist"
	"biasmit/internal/noise"
)

// runExactReference is the exact engine's sampling loop as it was
// before runExact compiled it, kept as its oracle: math/rand's own
// generator behind a *rand.Rand, a sort.Search over the CDF per shot and
// CompiledReadout.Apply per outcome, on the same diagonal.
func runExactReference(ctx context.Context, p *plan, opt Options, readout *noise.CompiledReadout) (*dist.Counts, error) {
	n := p.c.NumQubits
	cdf, err := p.exactDiag(ctx, nil)
	if err != nil {
		return nil, err
	}
	d := len(cdf)
	var total float64
	for i, q := range cdf {
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
