// Package density implements an exact density-matrix simulator for small
// registers. Where a trajectory samples one stochastic noise history, a
// density matrix carries every history at once: this package applies the
// noise channels (depolarizing gate error, amplitude damping) exactly,
// and OutputDist folds in the classical readout channel, producing the
// true output distribution with no sampling error.
//
// It has two roles. It is an engine: the backend evolves ρ through the
// device's noise placement and draws every shot from diag(ρ) on
// registers of up to 8 qubits, instead of simulating one noisy
// trajectory per shot. And it is the oracle the trajectory engine is
// checked against, since both must agree in distribution. The channel
// kernels update ρ in place in O(4^n) per operation; the tests check
// them against their Kraus-sum definitions. Diag (diag.go) repeats the
// kernels whose diagonal output depends on the diagonal alone in O(2^n),
// bit for bit, so the backend evolves ρ only up to the last step that
// needs the whole matrix.
package density

import (
	"fmt"
	"math"

	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/dist"
	"biasmit/internal/noise"
	"biasmit/internal/quantum"
)

// MaxQubits bounds register size; a density matrix holds 4^n complex
// entries (64 MiB at n=11; we stop well before).
const MaxQubits = 10

// Matrix is an n-qubit density matrix ρ, stored row-major with dimension
// d = 2^n. Construct with New; the zero value is unusable.
type Matrix struct {
	n   int
	d   int
	rho []complex128
}

// New returns the pure ground-state density matrix |0…0⟩⟨0…0|.
func New(n int) *Matrix {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("density: qubit count %d out of range [1,%d]", n, MaxQubits))
	}
	d := 1 << uint(n)
	m := &Matrix{n: n, d: d, rho: make([]complex128, d*d)}
	m.rho[0] = 1
	return m
}

// NumQubits returns the register size.
func (m *Matrix) NumQubits() int { return m.n }

// At returns ρ[r][c].
func (m *Matrix) At(r, c int) complex128 { return m.rho[r*m.d+c] }

// Trace returns tr(ρ), which stays 1 under every channel.
func (m *Matrix) Trace() float64 {
	var t complex128
	for i := 0; i < m.d; i++ {
		t += m.rho[i*m.d+i]
	}
	return real(t)
}

// Purity returns tr(ρ²): 1 for pure states, 1/2^n for the maximally
// mixed state. Noise strictly decreases it.
func (m *Matrix) Purity() float64 {
	var t complex128
	for r := 0; r < m.d; r++ {
		for c := 0; c < m.d; c++ {
			t += m.rho[r*m.d+c] * m.rho[c*m.d+r]
		}
	}
	return real(t)
}

// Probabilities returns the measurement distribution diag(ρ).
func (m *Matrix) Probabilities() []float64 {
	out := make([]float64, m.d)
	for i := range out {
		out[i] = real(m.rho[i*m.d+i])
	}
	return out
}

func (m *Matrix) checkQubit(q int) {
	if q < 0 || q >= m.n {
		panic(fmt.Sprintf("density: qubit %d out of range [0,%d)", q, m.n))
	}
}

// The kernels below update ρ in place. Each walks the 2×2 (or 4×4)
// blocks that share every index bit except the operand qubits' bits:
// spread(i, q) is the i-th index whose bit q is clear, so the block of
// qubit q at row r0 and column c0 spans rows {r0, r0|1<<q} and columns
// {c0, c0|1<<q}.

// spread inserts a zero at bit position q of i.
func spread(i, q int) int {
	low := i & (1<<uint(q) - 1)
	return (i-low)<<1 | low
}

// spread2 inserts zeros at bit positions lo and hi (lo < hi) of i.
func spread2(i, lo, hi int) int { return spread(spread(i, lo), hi) }

// rs multiplies z by the real factor f without a full complex product.
func rs(f float64, z complex128) complex128 { return complex(f*real(z), f*imag(z)) }

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }

// Apply1 conjugates ρ by the single-qubit unitary u on qubit q:
// ρ → (u⊗I)·ρ·(u†⊗I), one pass over the 2×2 blocks of qubit q.
func (m *Matrix) Apply1(u quantum.Matrix2, q int) {
	m.checkQubit(q)
	d, bit, half := m.d, 1<<uint(q), m.d>>1
	u00, u01, u10, u11 := u[0][0], u[0][1], u[1][0], u[1][1]
	// (L·u†)[i][j] = Σ_k L[i][k]·conj(u[j][k]).
	v00, v01, v10, v11 := conj(u00), conj(u01), conj(u10), conj(u11)
	for i := 0; i < half; i++ {
		r0 := spread(i, q)
		row0 := m.rho[r0*d : (r0+1)*d]
		row1 := m.rho[(r0|bit)*d : (r0|bit+1)*d]
		for j := 0; j < half; j++ {
			c0 := spread(j, q)
			c1 := c0 | bit
			a, b, c, e := row0[c0], row0[c1], row1[c0], row1[c1]
			l00, l01 := u00*a+u01*c, u00*b+u01*e
			l10, l11 := u10*a+u11*c, u10*b+u11*e
			row0[c0] = l00*v00 + l01*v01
			row0[c1] = l00*v10 + l01*v11
			row1[c0] = l10*v00 + l11*v01
			row1[c1] = l10*v10 + l11*v11
		}
	}
}

// permute conjugates ρ in place by the involutive basis permutation p
// that swaps each index i with i&sel == want for i^flip (and fixes every
// other index): ρ'[r][c] = ρ[p(r)][p(c)]. Rows are swapped first, then
// columns within each row, so no scratch buffer is needed.
func (m *Matrix) permute(sel, want, flip int) {
	d := m.d
	for r := 0; r < d; r++ {
		if r&sel != want {
			continue
		}
		a := m.rho[r*d : (r+1)*d]
		b := m.rho[(r^flip)*d : (r^flip+1)*d]
		for c := range a {
			a[c], b[c] = b[c], a[c]
		}
	}
	for r := 0; r < d; r++ {
		row := m.rho[r*d : (r+1)*d]
		for c := 0; c < d; c++ {
			if c&sel == want {
				row[c], row[c^flip] = row[c^flip], row[c]
			}
		}
	}
}

// ApplyCNOT conjugates ρ by a CNOT.
func (m *Matrix) ApplyCNOT(control, target int) {
	m.checkQubit(control)
	m.checkQubit(target)
	if control == target {
		panic("density: CNOT with identical qubits")
	}
	cb, tb := 1<<uint(control), 1<<uint(target)
	// Control set, target clear ↔ control set, target set.
	m.permute(cb|tb, cb, tb)
}

// ApplySWAP conjugates ρ by a SWAP.
func (m *Matrix) ApplySWAP(a, b int) {
	m.checkQubit(a)
	m.checkQubit(b)
	if a == b {
		panic("density: SWAP with identical qubits")
	}
	ba, bb := 1<<uint(a), 1<<uint(b)
	// Bit a set, bit b clear ↔ bit a clear, bit b set.
	m.permute(ba|bb, ba, ba|bb)
}

// ApplyCZ conjugates ρ by a controlled-Z.
func (m *Matrix) ApplyCZ(a, b int) {
	m.checkQubit(a)
	m.checkQubit(b)
	if a == b {
		panic("density: CZ with identical qubits")
	}
	mask := 1<<uint(a) | 1<<uint(b)
	// U = diag(±1) is real: ρ'[r][c] = sign(r)·ρ[r][c]·sign(c), which
	// negates exactly the entries where one of r, c has both bits set.
	for r := 0; r < m.d; r++ {
		rSet := r&mask == mask
		row := m.rho[r*m.d : (r+1)*m.d]
		for c := range row {
			if (c&mask == mask) != rSet {
				row[c] = -row[c]
			}
		}
	}
}

// Depolarize1 applies the single-qubit depolarizing channel with error
// probability p on qubit q: ρ → (1−p)ρ + p/3·Σ_{P∈{X,Y,Z}} PρP. The Pauli
// twirl Σ_{P∈{I,X,Y,Z}} PρP = 2·Tr_q ρ ⊗ I turns the sum into
// ρ → (1−4p/3)ρ + (2p/3)·Tr_q ρ ⊗ I, applied in place per 2×2 block.
func (m *Matrix) Depolarize1(q int, p float64) {
	m.checkQubit(q)
	if p <= 0 {
		return
	}
	d, bit, half := m.d, 1<<uint(q), m.d>>1
	keep, mix := 1-4*p/3, 2*p/3
	for i := 0; i < half; i++ {
		r0 := spread(i, q)
		row0 := m.rho[r0*d : (r0+1)*d]
		row1 := m.rho[(r0|bit)*d : (r0|bit+1)*d]
		for j := 0; j < half; j++ {
			c0 := spread(j, q)
			c1 := c0 | bit
			tr := rs(mix, row0[c0]+row1[c1])
			row0[c0] = rs(keep, row0[c0]) + tr
			row1[c1] = rs(keep, row1[c1]) + tr
			row0[c1] = rs(keep, row0[c1])
			row1[c0] = rs(keep, row1[c0])
		}
	}
}

// Depolarize2 applies the two-qubit depolarizing channel with error
// probability p on qubits (a,b): a uniform mixture over the 15
// non-identity Pauli pairs. As in Depolarize1, the twirl over all 16
// pairs is 4·Tr_ab ρ ⊗ I, so the channel is
// ρ → (1−16p/15)ρ + (4p/15)·Tr_ab ρ ⊗ I, applied in place per 4×4 block.
func (m *Matrix) Depolarize2(a, b int, p float64) {
	m.checkQubit(a)
	m.checkQubit(b)
	if a == b {
		panic("density: Depolarize2 with identical qubits")
	}
	if p <= 0 {
		return
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	d, quarter := m.d, m.d>>2
	off := [4]int{0, 1 << uint(a), 1 << uint(b), 1<<uint(a) | 1<<uint(b)}
	keep, mix := 1-16*p/15, 4*p/15
	for i := 0; i < quarter; i++ {
		r := spread2(i, lo, hi)
		for j := 0; j < quarter; j++ {
			c := spread2(j, lo, hi)
			var tr complex128
			for k := range off {
				tr += m.rho[(r+off[k])*d+c+off[k]]
			}
			tr = rs(mix, tr)
			for k := range off {
				row := m.rho[(r+off[k])*d : (r+off[k]+1)*d]
				for l := range off {
					v := rs(keep, row[c+off[l]])
					if k == l {
						v += tr
					}
					row[c+off[l]] = v
				}
			}
		}
	}
}

// AmplitudeDamp applies the T1 relaxation channel with decay probability
// gamma on qubit q: ρ → K0ρK0† + K1ρK1† with K0 = diag(1, √(1−γ)) and
// K1 = √γ·|0⟩⟨1|, in place per 2×2 block.
func (m *Matrix) AmplitudeDamp(q int, gamma float64) {
	m.checkQubit(q)
	if gamma <= 0 {
		return
	}
	if gamma > 1 {
		panic(fmt.Sprintf("density: gamma %v out of [0,1]", gamma))
	}
	d, bit, half := m.d, 1<<uint(q), m.d>>1
	s := math.Sqrt(1 - gamma)
	for i := 0; i < half; i++ {
		r0 := spread(i, q)
		row0 := m.rho[r0*d : (r0+1)*d]
		row1 := m.rho[(r0|bit)*d : (r0|bit+1)*d]
		for j := 0; j < half; j++ {
			c0 := spread(j, q)
			c1 := c0 | bit
			row0[c0] += rs(gamma, row1[c1])
			row1[c1] = rs(1-gamma, row1[c1])
			row0[c1] = rs(s, row0[c1])
			row1[c0] = rs(s, row1[c0])
		}
	}
}

// ApplyOp applies one circuit operation.
func (m *Matrix) ApplyOp(op circuit.Op) {
	switch op.Kind {
	case circuit.Gate1:
		m.Apply1(op.Matrix, op.Qubits[0])
	case circuit.CNOT:
		m.ApplyCNOT(op.Qubits[0], op.Qubits[1])
	case circuit.CZ:
		m.ApplyCZ(op.Qubits[0], op.Qubits[1])
	case circuit.SwapOp:
		m.ApplySWAP(op.Qubits[0], op.Qubits[1])
	case circuit.Barrier:
	default:
		panic(fmt.Sprintf("density: unknown op kind %d", op.Kind))
	}
}

// OutputDist applies the exact classical readout channel to diag(ρ) and
// returns the distribution of recorded strings.
func (m *Matrix) OutputDist(readout *noise.ReadoutModel) dist.Dist {
	if readout.NumQubits() != m.n {
		panic(fmt.Sprintf("density: readout model has %d qubits for %d-qubit state", readout.NumQubits(), m.n))
	}
	probs := m.Probabilities()
	out := dist.NewDist(m.n)
	for _, x := range bitstring.All(m.n) {
		px := probs[x.Uint64()]
		if px < 1e-15 {
			continue
		}
		for _, y := range bitstring.All(m.n) {
			if t := readout.TransitionProb(x, y); t > 0 {
				out.P[y] += px * t
			}
		}
	}
	return out
}
