// Package dist represents the output log of a NISQ execution: a histogram
// of measured bit strings over many trials, and the probability
// distributions derived from it.
//
// The NISQ model of computation (paper §2.3) repeats a program for
// thousands of trials and logs each measured outcome; every reliability
// metric in the paper (PST, IST, ROCA) and both mitigation policies
// (SIM, AIM) operate on these logs. The two key transformations are
// Merge, which aggregates logs from different measurement modes, and
// XorTransform, which applies the classical post-correction for a group
// measured under an inversion string.
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"biasmit/internal/bitstring"
)

// Counts is a histogram over measured bit strings. All strings in one
// Counts must share a width. The zero value is an empty, usable histogram.
type Counts struct {
	width int
	m     map[bitstring.Bits]int
	total int
}

// NewCounts returns an empty histogram for width-wide outcomes.
func NewCounts(width int) *Counts {
	return &Counts{width: width, m: make(map[bitstring.Bits]int)}
}

// NewCountsSize returns an empty histogram for width-wide outcomes with
// room for size distinct outcomes before it grows.
func NewCountsSize(width, size int) *Counts {
	return &Counts{width: width, m: make(map[bitstring.Bits]int, size)}
}

// Width returns the outcome width in bits.
func (c *Counts) Width() int { return c.width }

// Total returns the total number of recorded trials.
func (c *Counts) Total() int { return c.total }

// Add records n observations of outcome b.
func (c *Counts) Add(b bitstring.Bits, n int) {
	if b.Width() != c.width {
		panic(fmt.Sprintf("dist: outcome width %d does not match histogram width %d", b.Width(), c.width))
	}
	if n < 0 {
		panic("dist: negative count")
	}
	if n == 0 {
		return
	}
	if c.m == nil {
		c.m = make(map[bitstring.Bits]int)
	}
	c.m[b] += n
	c.total += n
}

// Get returns the number of observations of outcome b.
func (c *Counts) Get(b bitstring.Bits) int { return c.m[b] }

// Outcomes returns the distinct observed outcomes in ascending numeric
// order, for deterministic iteration.
func (c *Counts) Outcomes() []bitstring.Bits {
	out := make([]bitstring.Bits, 0, len(c.m))
	for b := range c.m {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Clone returns a deep copy.
func (c *Counts) Clone() *Counts {
	out := NewCounts(c.width)
	for b, n := range c.m {
		out.m[b] = n
	}
	out.total = c.total
	return out
}

// Merge accumulates other into c. This is the aggregation step of SIM:
// groups measured in different modes are post-corrected individually and
// then merged into one output log (paper Fig 7 step D).
func (c *Counts) Merge(other *Counts) {
	if other.width != c.width {
		panic(fmt.Sprintf("dist: merge width %d into %d", other.width, c.width))
	}
	for b, n := range other.m {
		c.Add(b, n)
	}
}

// XorTransform returns a new histogram in which every outcome has been
// XORed with s. Measuring under inversion string s and then applying
// XorTransform(s) recovers the logical outcome distribution; the paper
// calls this "post-measurement correction".
func (c *Counts) XorTransform(s bitstring.Bits) *Counts {
	if s.Width() != c.width {
		panic(fmt.Sprintf("dist: inversion string width %d does not match %d", s.Width(), c.width))
	}
	out := NewCounts(c.width)
	for b, n := range c.m {
		out.Add(b.Xor(s), n)
	}
	return out
}

// WilsonInterval returns the Wilson score interval for the probability
// of outcome b at confidence parameter z (1.96 ≈ 95%). Shot noise is the
// irreducible uncertainty of the NISQ trial loop; reporting PST without
// an interval overstates small differences between policies.
func (c *Counts) WilsonInterval(b bitstring.Bits, z float64) (lo, hi float64) {
	if c.total == 0 {
		return 0, 1
	}
	n := float64(c.total)
	p := float64(c.Get(b)) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Dist converts the histogram to a normalized probability distribution.
// An empty histogram yields an empty distribution.
func (c *Counts) Dist() Dist {
	d := Dist{Width: c.width, P: make(map[bitstring.Bits]float64, len(c.m))}
	if c.total == 0 {
		return d
	}
	inv := 1 / float64(c.total)
	for b, n := range c.m {
		d.P[b] = float64(n) * inv
	}
	return d
}

// Dist is a probability distribution over width-wide bit strings.
// Outcomes absent from P have probability zero.
type Dist struct {
	Width int
	P     map[bitstring.Bits]float64
}

// NewDist returns an empty distribution for width-wide outcomes.
func NewDist(width int) Dist {
	return Dist{Width: width, P: make(map[bitstring.Bits]float64)}
}

// Prob returns the probability of outcome b.
func (d Dist) Prob(b bitstring.Bits) float64 { return d.P[b] }

// Outcomes returns the distinct outcomes with nonzero mass in ascending
// numeric order.
func (d Dist) Outcomes() []bitstring.Bits {
	out := make([]bitstring.Bits, 0, len(d.P))
	for b := range d.P {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Mass returns the total probability mass (1 for a proper distribution).
//
// Scalar folds over a Dist (Mass, Entropy, KL, TVD, Expectation) walk
// the outcomes in ascending numeric order, not map order: Go randomizes
// map iteration and float addition is not associative, so a map-order
// sum varies by ulps from run to run — enough to flip comparisons built
// on top of it (e.g. picking the best of two near-tied QAOA angle
// candidates) and break the repo-wide same-seed reproducibility
// guarantee.
func (d Dist) Mass() float64 {
	var s float64
	for _, b := range d.Outcomes() {
		s += d.P[b]
	}
	return s
}

// Expectation returns Σ p(x)·f(x) over the distribution, folding in
// ascending outcome order for run-to-run reproducibility (see Mass).
func (d Dist) Expectation(f func(bitstring.Bits) float64) float64 {
	var e float64
	for _, b := range d.Outcomes() {
		e += d.P[b] * f(b)
	}
	return e
}

// Normalize returns a copy of d scaled to unit mass. A zero-mass
// distribution is returned unchanged.
func (d Dist) Normalize() Dist {
	m := d.Mass()
	out := NewDist(d.Width)
	if m == 0 {
		return out
	}
	for b, p := range d.P {
		out.P[b] = p / m
	}
	return out
}

// XorTransform returns the distribution of X⊕s when X~d.
func (d Dist) XorTransform(s bitstring.Bits) Dist {
	if s.Width() != d.Width {
		panic(fmt.Sprintf("dist: inversion string width %d does not match %d", s.Width(), d.Width))
	}
	out := NewDist(d.Width)
	for b, p := range d.P {
		out.P[b.Xor(s)] += p
	}
	return out
}

// Mix returns the convex combination Σ w[i]·ds[i], normalized by Σ w[i].
// SIM's merged distribution is Mix over the per-mode corrected
// distributions weighted by each mode's trial count.
func Mix(ds []Dist, w []float64) Dist {
	if len(ds) != len(w) {
		panic("dist: Mix length mismatch")
	}
	if len(ds) == 0 {
		panic("dist: Mix of nothing")
	}
	width := ds[0].Width
	var totw float64
	for i, d := range ds {
		if d.Width != width {
			panic("dist: Mix width mismatch")
		}
		if w[i] < 0 {
			panic("dist: negative Mix weight")
		}
		totw += w[i]
	}
	out := NewDist(width)
	if totw == 0 {
		return out
	}
	for i, d := range ds {
		f := w[i] / totw
		for b, p := range d.P {
			out.P[b] += f * p
		}
	}
	return out
}

// Entropy returns the Shannon entropy of d in bits: 0 for a
// deterministic output log, Width for a uniform one. Noise drives the
// entropy of NISQ output logs up; mitigation pulls it back down.
func (d Dist) Entropy() float64 {
	var h float64
	for _, b := range d.Outcomes() {
		if p := d.P[b]; p > 0 {
			h -= p * math.Log2(p)
		}
	}
	return h
}

// KL returns the Kullback-Leibler divergence D(d‖o) in bits. It is +Inf
// when d has mass where o has none, and panics on width mismatch.
func (d Dist) KL(o Dist) float64 {
	if d.Width != o.Width {
		panic("dist: KL width mismatch")
	}
	var kl float64
	for _, b := range d.Outcomes() {
		p := d.P[b]
		if p == 0 {
			continue
		}
		q := o.P[b]
		if q == 0 {
			return math.Inf(1)
		}
		kl += p * math.Log2(p/q)
	}
	return kl
}

// TVD returns the total-variation distance between d and o: half the L1
// distance, in [0,1]. Used to compare measured distributions against
// ideal ones in tests and experiments.
func (d Dist) TVD(o Dist) float64 {
	if d.Width != o.Width {
		panic("dist: TVD width mismatch")
	}
	var s float64
	for _, b := range d.Outcomes() {
		s += math.Abs(d.P[b] - o.P[b])
	}
	for _, b := range o.Outcomes() {
		if _, seen := d.P[b]; !seen {
			s += o.P[b]
		}
	}
	return s / 2
}

// TopK returns the k most probable outcomes in descending probability,
// breaking probability ties by ascending numeric value for determinism.
// If fewer than k outcomes have mass, all of them are returned.
func (d Dist) TopK(k int) []bitstring.Bits {
	out := d.Outcomes()
	sort.SliceStable(out, func(i, j int) bool { return d.P[out[i]] > d.P[out[j]] })
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// Rank returns the 1-based rank of outcome b when outcomes are sorted by
// descending probability, with ascending numeric value breaking ties.
// This is the paper's ROCA when b is the correct answer. An outcome with
// zero mass ranks after every outcome with mass.
func (d Dist) Rank(b bitstring.Bits) int {
	pb := d.P[b]
	rank := 1
	for o, p := range d.P {
		if o == b {
			continue
		}
		if p > pb || (p == pb && o.Less(b)) {
			rank++
		}
	}
	if pb == 0 {
		// b itself had no mass: it ties with every other zero-mass string,
		// so place it just past the observed outcomes.
		rank = len(d.P) + 1
		if _, seen := d.P[b]; seen {
			rank = len(d.P)
		}
	}
	return rank
}

// Sampler draws outcomes from a fixed distribution using the alias-free
// inverse-CDF method over the deterministic outcome order.
type Sampler struct {
	outcomes []bitstring.Bits
	cdf      []float64
}

// NewSampler prepares d for repeated sampling. It panics if d has no mass.
func NewSampler(d Dist) *Sampler {
	outs := d.Outcomes()
	if len(outs) == 0 {
		panic("dist: sampling from empty distribution")
	}
	cdf := make([]float64, len(outs))
	var acc float64
	for i, b := range outs {
		acc += d.P[b]
		cdf[i] = acc
	}
	if acc <= 0 {
		panic("dist: sampling from zero-mass distribution")
	}
	// Guard against floating-point undershoot so Sample never falls off
	// the end of the table.
	cdf[len(cdf)-1] = math.Max(cdf[len(cdf)-1], acc)
	return &Sampler{outcomes: outs, cdf: cdf}
}

// Sample draws one outcome using rng.
func (s *Sampler) Sample(rng *rand.Rand) bitstring.Bits {
	u := rng.Float64() * s.cdf[len(s.cdf)-1]
	i := sort.SearchFloat64s(s.cdf, u)
	if i >= len(s.outcomes) {
		i = len(s.outcomes) - 1
	}
	return s.outcomes[i]
}

// SampleCounts draws n outcomes and tallies them.
func (s *Sampler) SampleCounts(rng *rand.Rand, n int) *Counts {
	c := NewCounts(s.outcomes[0].Width())
	for i := 0; i < n; i++ {
		c.Add(s.Sample(rng), 1)
	}
	return c
}
