package core

import (
	"context"
	"fmt"

	"biasmit/internal/bitstring"
	"biasmit/internal/dist"
	"biasmit/internal/orchestrate"
)

// StandardInversionStrings returns the static inversion-string set the
// paper uses for SIM with k modes over a width-bit register:
//
//	k=1: standard mode only (the baseline);
//	k=2: all-zeros and all-ones (§5.2);
//	k=4: plus the two alternating strings, splitting the Hamming space
//	     into four parts (§5.3, Fig 8);
//	k=8: plus the four half-register strings (low half / high half and
//	     their complements), a denser Hamming-space cover for the
//	     mode-count ablation.
func StandardInversionStrings(width, k int) ([]bitstring.Bits, error) {
	zeros, ones := bitstring.Zeros(width), bitstring.Ones(width)
	even, odd := bitstring.Alternating(width, false), bitstring.Alternating(width, true)
	switch k {
	case 1:
		return []bitstring.Bits{zeros}, nil
	case 2:
		return []bitstring.Bits{zeros, ones}, nil
	case 4:
		return []bitstring.Bits{zeros, ones, even, odd}, nil
	case 8:
		half := width / 2
		low := zeros
		for q := 0; q < half; q++ {
			low = low.SetBit(q, true)
		}
		high := low.Invert()
		// Blend alternation with the halves for the final pair.
		lowAlt := even.Xor(high)
		highAlt := odd.Xor(high)
		return []bitstring.Bits{zeros, ones, even, odd, low, high, lowAlt, highAlt}, nil
	}
	return nil, fmt.Errorf("core: unsupported SIM mode count %d (want 1, 2, 4, or 8)", k)
}

// SIMResult carries the merged output of a SIM execution along with the
// per-mode corrected histograms for inspection.
type SIMResult struct {
	Merged  *dist.Counts
	Strings []bitstring.Bits
	PerMode []*dist.Counts
}

// SIMContext runs Static Invert-and-Measure: the trial budget is split
// into equal groups, one per inversion string; each group is executed
// with its string applied before measurement and XOR-corrected
// afterwards; the corrected histograms are merged into one output log
// (paper Fig 7). The inversion groups are independent jobs and run on
// Machine.Workers goroutines; each group's seed is derived from (seed,
// group index) and the per-group histograms merge in group order, so
// the result is bit-identical at every worker count.
func SIMContext(ctx context.Context, j *Job, strings []bitstring.Bits, shots int, seed int64) (*SIMResult, error) {
	if len(strings) == 0 {
		return nil, fmt.Errorf("core: SIM needs at least one inversion string")
	}
	if shots < len(strings) {
		return nil, fmt.Errorf("core: %d shots cannot cover %d SIM modes", shots, len(strings))
	}
	res := &SIMResult{
		Merged:  dist.NewCounts(j.Width()),
		Strings: append([]bitstring.Bits(nil), strings...),
	}
	perMode, err := orchestrate.Map(ctx, j.Machine.workers(), splitShots(shots, len(strings)),
		func(ctx context.Context, i, n int) (*dist.Counts, error) {
			counts, err := j.RunWithInversionContext(ctx, strings[i], n, deriveSeed(seed, i))
			if err != nil {
				return nil, fmt.Errorf("core: SIM mode %v: %w", strings[i], err)
			}
			return counts, nil
		})
	if err != nil {
		return nil, err
	}
	res.PerMode = perMode
	for _, counts := range perMode {
		res.Merged.Merge(counts)
	}
	return res, nil
}

// SIM4Context runs the paper's default four-mode SIM configuration.
func SIM4Context(ctx context.Context, j *Job, shots int, seed int64) (*SIMResult, error) {
	strings, err := StandardInversionStrings(j.Width(), 4)
	if err != nil {
		return nil, err
	}
	return SIMContext(ctx, j, strings, shots, seed)
}
