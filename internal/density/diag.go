package density

import (
	"fmt"

	"biasmit/internal/circuit"
	"biasmit/internal/quantum"
)

// Diag is diag(ρ) alone: the measurement distribution of an n-qubit
// density matrix, 2^n real entries. Some channels map diag(ρ) to a
// diagonal that depends on diag(ρ) alone — X, CNOT, SWAP, CZ, barriers,
// 1- and 2-qubit depolarizing and amplitude damping — so after such a
// channel the diagonal can be evolved without the 4^n-entry matrix.
//
// Each method repeats, on the real parts of ρ's diagonal, the arithmetic
// the Matrix kernel of the same name does there, in the same order. The
// Matrix kernels' diagonal real parts depend on no other entry (the
// imaginary parts X mixes in are multiplied by exact zeros), so after any
// sequence of these channels a Diag taken from Probabilities equals
// Probabilities of the matrix the same sequence evolves, bit for bit up
// to the sign of a zero.
type Diag []float64

// DiagClosed reports whether op's effect on diag(ρ) depends on diag(ρ)
// alone, so Diag.ApplyOp can apply it: a barrier, a CNOT, CZ or SWAP, or
// a one-qubit gate whose matrix is exactly X.
func DiagClosed(op circuit.Op) bool {
	return op.Kind != circuit.Gate1 || op.Matrix == quantum.X
}

// ApplyOp applies one circuit operation, which must be DiagClosed.
func (d Diag) ApplyOp(op circuit.Op) {
	switch op.Kind {
	case circuit.Gate1:
		if op.Matrix != quantum.X {
			panic(fmt.Sprintf("density: gate %q does not act on the diagonal alone", op.Label))
		}
		d.ApplyX(op.Qubits[0])
	case circuit.CNOT:
		d.ApplyCNOT(op.Qubits[0], op.Qubits[1])
	case circuit.SwapOp:
		d.ApplySWAP(op.Qubits[0], op.Qubits[1])
	case circuit.CZ, circuit.Barrier:
		// Both leave every diagonal entry as it is (see Matrix.ApplyCZ).
	default:
		panic(fmt.Sprintf("density: unknown op kind %d", op.Kind))
	}
}

// permute is Matrix.permute on the diagonal: d'[r] = d[p(r)].
func (d Diag) permute(sel, want, flip int) {
	for r := range d {
		if r&sel == want {
			d[r], d[r^flip] = d[r^flip], d[r]
		}
	}
}

// ApplyX is Matrix.Apply1(quantum.X, q).
func (d Diag) ApplyX(q int) {
	bit := 1 << uint(q)
	d.permute(bit, 0, bit)
}

// ApplyCNOT is Matrix.ApplyCNOT.
func (d Diag) ApplyCNOT(control, target int) {
	cb, tb := 1<<uint(control), 1<<uint(target)
	d.permute(cb|tb, cb, tb)
}

// ApplySWAP is Matrix.ApplySWAP.
func (d Diag) ApplySWAP(a, b int) {
	ba, bb := 1<<uint(a), 1<<uint(b)
	d.permute(ba|bb, ba, ba|bb)
}

// Depolarize1 is Matrix.Depolarize1.
func (d Diag) Depolarize1(q int, p float64) {
	if p <= 0 {
		return
	}
	bit, half := 1<<uint(q), len(d)>>1
	keep, mix := 1-4*p/3, 2*p/3
	for i := 0; i < half; i++ {
		r0 := spread(i, q)
		a, e := d[r0], d[r0|bit]
		tr := mix * (a + e)
		d[r0] = keep*a + tr
		d[r0|bit] = keep*e + tr
	}
}

// Depolarize2 is Matrix.Depolarize2. The trace of each 4×4 block adds
// its diagonal in the kernel's order, which depends on which of a and b
// is first.
func (d Diag) Depolarize2(a, b int, p float64) {
	if p <= 0 {
		return
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	off := [4]int{0, 1 << uint(a), 1 << uint(b), 1<<uint(a) | 1<<uint(b)}
	keep, mix := 1-16*p/15, 4*p/15
	for i := 0; i < len(d)>>2; i++ {
		r := spread2(i, lo, hi)
		var tr float64
		for _, o := range off {
			tr += d[r+o]
		}
		tr = mix * tr
		for _, o := range off {
			d[r+o] = keep*d[r+o] + tr
		}
	}
}

// AmplitudeDamp is Matrix.AmplitudeDamp.
func (d Diag) AmplitudeDamp(q int, gamma float64) {
	if gamma <= 0 {
		return
	}
	if gamma > 1 {
		panic(fmt.Sprintf("density: gamma %v out of [0,1]", gamma))
	}
	bit, half := 1<<uint(q), len(d)>>1
	for i := 0; i < half; i++ {
		r0 := spread(i, q)
		d[r0] += gamma * d[r0|bit]
		d[r0|bit] = (1 - gamma) * d[r0|bit]
	}
}
