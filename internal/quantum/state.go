package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"biasmit/internal/bitstring"
)

// MaxQubits bounds register size; a dense state vector for n qubits
// allocates 2^n complex128 values (16 MiB at n=20).
const MaxQubits = 24

// State is a dense n-qubit state vector. Construct with NewState; the
// zero value is not usable.
type State struct {
	n    int
	amps []complex128
}

// NewState returns the n-qubit computational ground state |00…0⟩.
func NewState(n int) *State {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("quantum: qubit count %d out of range [1,%d]", n, MaxQubits))
	}
	s := &State{n: n, amps: make([]complex128, 1<<uint(n))}
	s.amps[0] = 1
	return s
}

// NewBasisState returns |b⟩ for the given classical string.
func NewBasisState(b bitstring.Bits) *State {
	s := NewState(b.Width())
	s.amps[0] = 0
	s.amps[b.Uint64()] = 1
	return s
}

// NumQubits returns the register size.
func (s *State) NumQubits() int { return s.n }

// Clone returns a deep copy of s.
func (s *State) Clone() *State {
	c := &State{n: s.n, amps: make([]complex128, len(s.amps))}
	copy(c.amps, s.amps)
	return c
}

// Amplitude returns ⟨b|s⟩.
func (s *State) Amplitude(b bitstring.Bits) complex128 {
	if b.Width() != s.n {
		panic(fmt.Sprintf("quantum: basis width %d does not match register %d", b.Width(), s.n))
	}
	return s.amps[b.Uint64()]
}

// Norm returns ⟨s|s⟩, which is 1 for a normalized state.
func (s *State) Norm() float64 {
	var t float64
	for _, a := range s.amps {
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return t
}

// Normalize rescales s to unit norm. It panics on a zero vector, which
// can only arise from a programming error (projecting onto an impossible
// outcome).
func (s *State) Normalize() {
	n := math.Sqrt(s.Norm())
	if n == 0 {
		panic("quantum: normalizing zero state")
	}
	inv := complex(1/n, 0)
	for i := range s.amps {
		s.amps[i] *= inv
	}
}

func (s *State) checkQubit(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("quantum: qubit %d out of range [0,%d)", q, s.n))
	}
}

// Apply1 applies the single-qubit gate m to qubit q in place.
func (s *State) Apply1(m Matrix2, q int) {
	s.checkQubit(q)
	stride := uint64(1) << uint(q)
	size := uint64(len(s.amps))
	for base := uint64(0); base < size; base += stride * 2 {
		for off := uint64(0); off < stride; off++ {
			i0 := base + off
			i1 := i0 + stride
			a0, a1 := s.amps[i0], s.amps[i1]
			s.amps[i0] = m[0][0]*a0 + m[0][1]*a1
			s.amps[i1] = m[1][0]*a0 + m[1][1]*a1
		}
	}
}

// Apply2 applies the two-qubit gate m to qubits (q0, q1) in place, where
// m is expressed in the basis |q1 q0⟩ ∈ {00,01,10,11}.
func (s *State) Apply2(m Matrix4, q0, q1 int) {
	s.checkQubit(q0)
	s.checkQubit(q1)
	if q0 == q1 {
		panic("quantum: Apply2 with identical qubits")
	}
	b0 := uint64(1) << uint(q0)
	b1 := uint64(1) << uint(q1)
	size := uint64(len(s.amps))
	for i := uint64(0); i < size; i++ {
		if i&b0 != 0 || i&b1 != 0 {
			continue // visit each 4-amplitude block once, from its 00 corner
		}
		i00 := i
		i01 := i | b0
		i10 := i | b1
		i11 := i | b0 | b1
		a := [4]complex128{s.amps[i00], s.amps[i01], s.amps[i10], s.amps[i11]}
		var r [4]complex128
		for row := 0; row < 4; row++ {
			r[row] = m[row][0]*a[0] + m[row][1]*a[1] + m[row][2]*a[2] + m[row][3]*a[3]
		}
		s.amps[i00], s.amps[i01], s.amps[i10], s.amps[i11] = r[0], r[1], r[2], r[3]
	}
}

// ApplyCNOT applies a controlled-X with the given control and target.
func (s *State) ApplyCNOT(control, target int) {
	s.checkQubit(control)
	s.checkQubit(target)
	if control == target {
		panic("quantum: CNOT with identical qubits")
	}
	cb := uint64(1) << uint(control)
	tb := uint64(1) << uint(target)
	size := uint64(len(s.amps))
	for i := uint64(0); i < size; i++ {
		if i&cb != 0 && i&tb == 0 {
			j := i | tb
			s.amps[i], s.amps[j] = s.amps[j], s.amps[i]
		}
	}
}

// ApplyCZ applies a controlled-Z between qubits a and b.
func (s *State) ApplyCZ(a, b int) {
	s.checkQubit(a)
	s.checkQubit(b)
	if a == b {
		panic("quantum: CZ with identical qubits")
	}
	ab := uint64(1)<<uint(a) | uint64(1)<<uint(b)
	for i := range s.amps {
		if uint64(i)&ab == ab {
			s.amps[i] = -s.amps[i]
		}
	}
}

// ApplySWAP exchanges qubits a and b.
func (s *State) ApplySWAP(a, b int) {
	s.checkQubit(a)
	s.checkQubit(b)
	if a == b {
		panic("quantum: SWAP with identical qubits")
	}
	ba := uint64(1) << uint(a)
	bb := uint64(1) << uint(b)
	size := uint64(len(s.amps))
	for i := uint64(0); i < size; i++ {
		if i&ba != 0 && i&bb == 0 {
			j := i ^ ba ^ bb
			s.amps[i], s.amps[j] = s.amps[j], s.amps[i]
		}
	}
}

// ApplyControlled applies gate m to target when control is |1⟩.
func (s *State) ApplyControlled(m Matrix2, control, target int) {
	s.checkQubit(control)
	s.checkQubit(target)
	if control == target {
		panic("quantum: controlled gate with identical qubits")
	}
	cb := uint64(1) << uint(control)
	tb := uint64(1) << uint(target)
	size := uint64(len(s.amps))
	for i := uint64(0); i < size; i++ {
		if i&cb != 0 && i&tb == 0 {
			i0 := i
			i1 := i | tb
			a0, a1 := s.amps[i0], s.amps[i1]
			s.amps[i0] = m[0][0]*a0 + m[0][1]*a1
			s.amps[i1] = m[1][0]*a0 + m[1][1]*a1
		}
	}
}

// Prob1 returns the probability that measuring qubit q yields 1.
func (s *State) Prob1(q int) float64 {
	s.checkQubit(q)
	b := uint64(1) << uint(q)
	var p float64
	for i, a := range s.amps {
		if uint64(i)&b != 0 {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// Probabilities returns the full measurement distribution over all 2^n
// basis states, indexed by the packed basis value.
func (s *State) Probabilities() []float64 {
	p := make([]float64, len(s.amps))
	for i, a := range s.amps {
		p[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}

// Sample draws one measurement outcome without collapsing the state.
// This is the correct semantics for the NISQ trial loop: each trial
// re-prepares the state, so sampling repeatedly from the final state of
// one (noisy) trajectory is equivalent to measuring fresh copies.
func (s *State) Sample(rng *rand.Rand) bitstring.Bits {
	i, _ := s.SampleIndex(rng)
	return bitstring.New(i, s.n)
}

// SampleIndex is Sample returning the packed basis index of the outcome.
// It draws one rng.Float64 u and returns the first index whose running
// probability sum exceeds u. When floating-point round-off leaves u at
// or beyond the total mass, it returns the last basis index with ok
// false, so a caller that simulates a sub-register of a wider device can
// report the device's own last basis state instead.
func (s *State) SampleIndex(rng *rand.Rand) (i uint64, ok bool) {
	u := rng.Float64()
	var acc float64
	for j, a := range s.amps {
		acc += real(a)*real(a) + imag(a)*imag(a)
		if u < acc {
			return uint64(j), true
		}
	}
	return uint64(len(s.amps) - 1), false
}

// MeasureAll performs a projective measurement of every qubit, collapsing
// s onto the sampled basis state, and returns the outcome.
func (s *State) MeasureAll(rng *rand.Rand) bitstring.Bits {
	out := s.Sample(rng)
	for i := range s.amps {
		s.amps[i] = 0
	}
	s.amps[out.Uint64()] = 1
	return out
}

// ApplyAmplitudeDamping applies one stochastic trajectory step of the
// amplitude-damping (T1 relaxation) channel with decay probability gamma
// on qubit q. With probability gamma·P(q=1) the qubit jumps to |0⟩
// (Kraus K1); otherwise the no-jump evolution K0 rescales the |1⟩
// amplitudes. Averaged over trajectories this reproduces the channel
// exactly; it is the physical mechanism behind the paper's 1→0
// measurement bias.
func (s *State) ApplyAmplitudeDamping(q int, gamma float64, rng *rand.Rand) {
	s.checkQubit(q)
	if gamma < 0 || gamma > 1 {
		panic(fmt.Sprintf("quantum: damping gamma %v out of [0,1]", gamma))
	}
	if gamma == 0 {
		return
	}
	p1 := s.Prob1(q)
	pJump := gamma * p1
	b := uint64(1) << uint(q)
	if rng.Float64() < pJump {
		// Jump: |x…1…⟩ → |x…0…⟩, amplitude moves to the relaxed index.
		for i := range s.amps {
			if uint64(i)&b != 0 {
				s.amps[uint64(i)^b] = s.amps[i]
				s.amps[i] = 0
			}
		}
	} else {
		// No jump: K0 = diag(1, √(1−γ)).
		f := complex(math.Sqrt(1-gamma), 0)
		for i := range s.amps {
			if uint64(i)&b != 0 {
				s.amps[i] *= f
			}
		}
	}
	s.Normalize()
}

// ApplyPauli applies Pauli p to qubit q (a stochastic gate-error kick).
func (s *State) ApplyPauli(p Pauli, q int) {
	if p == PauliI {
		return
	}
	s.Apply1(p.Matrix(), q)
}

// Fidelity returns |⟨s|o⟩|², the overlap between two pure states.
func (s *State) Fidelity(o *State) float64 {
	if s.n != o.n {
		panic("quantum: fidelity between different register sizes")
	}
	var ip complex128
	for i, a := range s.amps {
		ip += cmplx.Conj(a) * o.amps[i]
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}
