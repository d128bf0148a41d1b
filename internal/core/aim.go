package core

import (
	"context"
	"fmt"
	"sort"

	"biasmit/internal/bitstring"
	"biasmit/internal/dist"
	"biasmit/internal/orchestrate"
)

// AIMConfig tunes Adaptive Invert-and-Measure. The zero value is
// completed by withDefaults to the paper's configuration: 25% of trials
// as canaries, the four static SIM strings for the canary phase, and K=4
// adaptive inversion strings.
type AIMConfig struct {
	// CanaryFraction is the share of the trial budget spent learning the
	// likely outputs (paper §6.2.3 uses 25%).
	CanaryFraction float64
	// K is the number of candidate outputs given tailored inversion
	// strings (paper uses K=4).
	K int
	// CanaryStrings are the inversion strings for the canary phase;
	// defaults to the four-mode SIM set, which removes global bias from
	// the canary distribution (§6.2.2).
	CanaryStrings []bitstring.Bits
	// EqualAllocation splits the adaptive budget evenly across the K
	// candidates instead of proportionally to their likelihoods. The
	// default (false) concentrates trials on the most likely output,
	// which is what lets AIM approach the strongest state's fidelity in
	// the paper's Fig 13.
	EqualAllocation bool
	// ExpandHamming, when positive, augments the candidate pool with
	// every string within that Hamming distance of a top canary output
	// before the final top-K selection (paper §6.2.2: "these k strings,
	// or the strings within one or two hamming distance, are the most
	// likely to be the correct output"). Unobserved neighbours inherit
	// their parent's likelihood discounted by distance, rescuing true
	// outputs that the canary misread by a bit or two.
	ExpandHamming int
}

func (c AIMConfig) withDefaults(width int) (AIMConfig, error) {
	if c.CanaryFraction == 0 {
		c.CanaryFraction = 0.25
	}
	if c.CanaryFraction <= 0 || c.CanaryFraction >= 1 {
		return c, fmt.Errorf("core: canary fraction %v out of (0,1)", c.CanaryFraction)
	}
	if c.K == 0 {
		c.K = 4
	}
	if c.K < 1 {
		return c, fmt.Errorf("core: K must be positive, got %d", c.K)
	}
	if len(c.CanaryStrings) == 0 {
		strings, err := StandardInversionStrings(width, 4)
		if err != nil {
			return c, err
		}
		c.CanaryStrings = strings
	}
	for _, s := range c.CanaryStrings {
		if s.Width() != width {
			return c, fmt.Errorf("core: canary string %v width does not match register %d", s, width)
		}
	}
	return c, nil
}

// Candidate is one likely output identified by the canary phase.
type Candidate struct {
	Output     bitstring.Bits
	Likelihood float64        // L_i = P(i in canary output) / strength(i)
	Inversion  bitstring.Bits // string mapping Output onto the strongest state
}

// AIMResult carries the merged output log of an AIM execution together
// with the intermediate artifacts (canary distribution, candidates, and
// the strongest state used for targeting).
type AIMResult struct {
	Merged     *dist.Counts
	Canary     *dist.Counts
	Candidates []Candidate
	Strongest  bitstring.Bits
}

// Likelihoods scales an observed output distribution by inverse
// measurement strength (paper Equation 1): weak states that still appear
// are more likely to be the true output than their raw frequency
// suggests. States with zero observed probability get zero likelihood;
// states with zero estimated strength use a floor of half the smallest
// positive strength so they are boosted but finite.
func Likelihoods(observed dist.Dist, rbms RBMS) map[bitstring.Bits]float64 {
	if observed.Width != rbms.Width {
		panic(fmt.Sprintf("core: observed width %d vs RBMS width %d", observed.Width, rbms.Width))
	}
	floor := minPositive(rbms.Strength) / 2
	if floor == 0 {
		floor = 1
	}
	out := make(map[bitstring.Bits]float64, len(observed.P))
	for b, p := range observed.P {
		if p == 0 {
			continue
		}
		s := rbms.Of(b)
		if s <= 0 {
			s = floor
		}
		out[b] = p / s
	}
	return out
}

func minPositive(v []float64) float64 {
	min := 0.0
	for _, x := range v {
		if x > 0 && (min == 0 || x < min) {
			min = x
		}
	}
	return min
}

// neighbourDiscount is the per-bit likelihood decay applied to
// unobserved Hamming neighbours during candidate expansion.
const neighbourDiscount = 0.5

// expandCandidates grows the likelihood map with the Hamming
// neighbourhood (up to the given distance) of the current top-k outputs.
// An unobserved neighbour at distance d from its best parent receives
// likelihood parent·neighbourDiscount^d; observed states keep their own.
func expandCandidates(likes map[bitstring.Bits]float64, k, distance int) map[bitstring.Bits]float64 {
	out := make(map[bitstring.Bits]float64, len(likes))
	for b, l := range likes {
		out[b] = l
	}
	frontier := topKByLikelihood(likes, k)
	for _, parent := range frontier {
		base := likes[parent]
		expandFrom(out, parent, base, distance)
	}
	return out
}

func expandFrom(out map[bitstring.Bits]float64, from bitstring.Bits, base float64, distance int) {
	if distance == 0 {
		return
	}
	for q := 0; q < from.Width(); q++ {
		nb := from.SetBit(q, !from.Bit(q))
		inherited := base * neighbourDiscount
		if inherited > out[nb] {
			out[nb] = inherited
		}
		expandFrom(out, nb, inherited, distance-1)
	}
}

// topKByLikelihood returns the k outputs with the highest likelihood,
// breaking ties toward the numerically smallest output.
func topKByLikelihood(l map[bitstring.Bits]float64, k int) []bitstring.Bits {
	keys := make([]bitstring.Bits, 0, len(l))
	for b := range l {
		keys = append(keys, b)
	}
	sort.Slice(keys, func(i, j int) bool {
		if l[keys[i]] != l[keys[j]] {
			return l[keys[i]] > l[keys[j]]
		}
		return keys[i].Less(keys[j])
	})
	if k < len(keys) {
		keys = keys[:k]
	}
	return keys
}

// AIMContext runs Adaptive Invert-and-Measure (paper §6.2, Fig 12):
//
//  1. Canary phase: CanaryFraction of the budget runs as SIM over
//     CanaryStrings, producing a bias-averaged output estimate.
//  2. Candidate generation: outputs are ranked by likelihood
//     L = frequency / RBMS strength and the top K survive.
//  3. Adaptive phase: the remaining budget is split across K tailored
//     inversion strings, each mapping one candidate onto the machine's
//     strongest state (inversion = candidate XOR strongest).
//
// All phases' corrected histograms merge into the final output log; the
// total trial count equals the baseline's, as in the paper. The canary
// phase runs as a (possibly parallel) SIMContext; the adaptive phase's
// tailored modes are independent jobs run on Machine.Workers goroutines,
// with each mode's seed derived from (seed, mode index) and histograms
// merged in mode order — bit-identical at every worker count.
func AIMContext(ctx context.Context, j *Job, rbms RBMS, cfg AIMConfig, shots int, seed int64) (*AIMResult, error) {
	cfg, err := cfg.withDefaults(j.Width())
	if err != nil {
		return nil, err
	}
	if rbms.Width != j.Width() {
		return nil, fmt.Errorf("core: RBMS width %d for %d-qubit job", rbms.Width, j.Width())
	}
	canaryShots := int(float64(shots) * cfg.CanaryFraction)
	if canaryShots < len(cfg.CanaryStrings) {
		return nil, fmt.Errorf("core: %d canary shots cannot cover %d strings", canaryShots, len(cfg.CanaryStrings))
	}
	adaptiveShots := shots - canaryShots
	if adaptiveShots < cfg.K {
		return nil, fmt.Errorf("core: %d adaptive shots cannot cover K=%d", adaptiveShots, cfg.K)
	}

	canary, err := SIMContext(ctx, j, cfg.CanaryStrings, canaryShots, deriveSeed(seed, 1000))
	if err != nil {
		return nil, fmt.Errorf("core: AIM canary phase: %w", err)
	}

	strongest := rbms.StrongestState()
	likes := Likelihoods(canary.Merged.Dist(), rbms)
	if cfg.ExpandHamming > 0 {
		likes = expandCandidates(likes, cfg.K, cfg.ExpandHamming)
	}
	tops := topKByLikelihood(likes, cfg.K)
	if len(tops) == 0 {
		return nil, fmt.Errorf("core: canary phase observed no outputs")
	}

	res := &AIMResult{
		Merged:    canary.Merged.Clone(),
		Canary:    canary.Merged,
		Strongest: strongest,
	}
	for _, b := range tops {
		res.Candidates = append(res.Candidates, Candidate{
			Output:     b,
			Likelihood: likes[b],
			Inversion:  b.Xor(strongest),
		})
	}

	var allocation []int
	if cfg.EqualAllocation {
		allocation = splitShots(adaptiveShots, len(res.Candidates))
	} else {
		weights := make([]float64, len(res.Candidates))
		for i, c := range res.Candidates {
			weights[i] = c.Likelihood
		}
		allocation = splitShotsWeighted(adaptiveShots, weights)
	}
	adaptive, err := orchestrate.Map(ctx, j.Machine.workers(), allocation,
		func(ctx context.Context, i, n int) (*dist.Counts, error) {
			if n == 0 {
				return nil, nil
			}
			cand := res.Candidates[i]
			counts, err := j.RunWithInversionContext(ctx, cand.Inversion, n, deriveSeed(seed, 2000+i))
			if err != nil {
				return nil, fmt.Errorf("core: AIM adaptive mode %v: %w", cand.Inversion, err)
			}
			return counts, nil
		})
	if err != nil {
		return nil, err
	}
	for _, counts := range adaptive {
		if counts != nil {
			res.Merged.Merge(counts)
		}
	}
	return res, nil
}

// splitShotsWeighted divides a trial budget proportionally to weights,
// guaranteeing at least one trial per positive-weight group and an exact
// total. Zero or negative weights fall back to an equal split.
func splitShotsWeighted(shots int, weights []float64) []int {
	n := len(weights)
	var total float64
	for _, w := range weights {
		if w < 0 {
			w = 0
		}
		total += w
	}
	if total <= 0 || shots < n {
		return splitShots(shots, n)
	}
	out := make([]int, n)
	assigned := 0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		out[i] = int(float64(shots) * w / total)
		if out[i] == 0 && w > 0 {
			out[i] = 1
		}
		assigned += out[i]
	}
	// Distribute the rounding remainder (or claw back an excess) from the
	// heaviest group down.
	for assigned != shots {
		// Index of the largest current allocation.
		best := 0
		for i := 1; i < n; i++ {
			if out[i] > out[best] {
				best = i
			}
		}
		if assigned < shots {
			out[best]++
			assigned++
		} else {
			if out[best] <= 1 {
				break
			}
			out[best]--
			assigned--
		}
	}
	return out
}
