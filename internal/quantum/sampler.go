package quantum

import (
	"fmt"
	"math/rand"
	"sort"

	"biasmit/internal/bitstring"
)

// Sampler is a cumulative-probability (CDF) view of a state, built once
// per trajectory so that a batch of shots pays O(2^n) a single time and
// O(log 2^n) = O(n) per shot, instead of the O(2^n) linear scan
// State.Sample performs on every draw.
//
// Stream identity: Sampler.Sample is guaranteed to be byte-identical to
// State.Sample for the same *rand.Rand stream. Both draw exactly one
// rng.Float64 per shot; the prefix array is accumulated left to right in
// the same order as Sample's running sum, so every partial sum is the
// same IEEE-754 value Sample would have compared against; and the
// selection rule is "first index i with u < prefix[i]" — exactly
// Sample's `u < acc` tie semantics. The accumulated terms are
// non-negative, so the prefix array is non-decreasing and the predicate
// u < prefix[i] is monotone in i, which makes binary search return the
// same index the linear scan would. When u lands at or beyond the total
// accumulated mass (floating-point round-off), both return the last
// basis state.
//
// A Sampler does not alias the state it was built from; the state may be
// mutated or released afterwards. Construct with NewSampler or recycle
// one with Reset; the zero value is not usable.
type Sampler struct {
	n      int
	prefix []float64
	// released marks a sampler currently owned by the pool; see
	// State.released.
	released bool
}

// NewSampler builds the CDF of s.
func NewSampler(s *State) *Sampler {
	sp := &Sampler{}
	sp.Reset(s)
	return sp
}

// Reset rebuilds the CDF from s, reusing the prefix buffer when the
// widths match (the per-trajectory refill path of the backend trial
// loop).
func (sp *Sampler) Reset(s *State) {
	sp.n = s.n
	if cap(sp.prefix) >= len(s.amps) {
		sp.prefix = sp.prefix[:len(s.amps)]
	} else {
		sp.prefix = make([]float64, len(s.amps))
	}
	var acc float64
	for i, a := range s.amps {
		acc += real(a)*real(a) + imag(a)*imag(a)
		sp.prefix[i] = acc
	}
}

// NumQubits returns the register width the CDF was built over.
func (sp *Sampler) NumQubits() int { return sp.n }

// Sample draws one measurement outcome. See the type comment for the
// stream-identity contract with State.Sample.
func (sp *Sampler) Sample(rng *rand.Rand) bitstring.Bits {
	i, _ := sp.SampleIndex(rng)
	return bitstring.New(i, sp.n)
}

// SampleIndex is Sample returning the packed basis index, with the same
// round-off report as State.SampleIndex: ok is false when u lands at or
// beyond the total mass and the last basis index is returned.
func (sp *Sampler) SampleIndex(rng *rand.Rand) (i uint64, ok bool) {
	if sp.prefix == nil {
		panic("quantum: Sample on zero Sampler")
	}
	u := rng.Float64()
	// First index with u < prefix[i] — strict, matching State.Sample's
	// `u < acc`. The prefix is non-decreasing, so the predicate is
	// monotone and Search lands on the same index the linear scan would.
	j := sort.Search(len(sp.prefix), func(j int) bool { return u < sp.prefix[j] })
	if j >= len(sp.prefix) {
		// Floating-point round-off: u ≥ total mass ⇒ last basis state,
		// matching State.SampleIndex's fallthrough.
		return uint64(len(sp.prefix) - 1), false
	}
	return uint64(j), true
}

// ProbabilitiesInto writes the full measurement distribution over all
// 2^n basis states into dst, indexed by packed basis value. It is the
// allocation-free form of Probabilities for callers that sit in loops;
// dst must have length exactly 2^n.
func (s *State) ProbabilitiesInto(dst []float64) {
	if len(dst) != len(s.amps) {
		panic(fmt.Sprintf("quantum: ProbabilitiesInto dst length %d for 2^%d amplitudes", len(dst), s.n))
	}
	for i, a := range s.amps {
		dst[i] = real(a)*real(a) + imag(a)*imag(a)
	}
}

// Reset returns s to the computational ground state |00…0⟩ in place,
// the re-preparation step of the NISQ trial loop. Combined with
// AcquireState/ReleaseState it lets the backend reuse one amplitude
// buffer across every trajectory of a run.
func (s *State) Reset() {
	for i := range s.amps {
		s.amps[i] = 0
	}
	s.amps[0] = 1
}
