package density

import (
	"math"
	"math/rand"
	"testing"

	"biasmit/internal/circuit"
	"biasmit/internal/quantum"
)

// sameBits reports whether a and b are the same float64 bit for bit,
// counting +0 and −0 as equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// TestDiagKernelsMatchMatrixKernels applies every diagonal-closed kernel
// to a random ρ and to its diagonal, at 3, 5 and 8 qubits, on every
// qubit and every ordered pair, and requires the Diag result to equal
// diag of the Matrix result bit for bit (±0 counted equal).
func TestDiagKernelsMatchMatrixKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	type kernel struct {
		name   string
		matrix func(m *Matrix)
		diag   func(d Diag)
	}
	for _, n := range []int{3, 5, 8} {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				p := rng.Float64()
				var kernels []kernel
				if a == b {
					x := circuit.Op{Kind: circuit.Gate1, Qubits: []int{a}, Matrix: quantum.X, Label: "x"}
					kernels = []kernel{
						{"X", func(m *Matrix) { m.Apply1(quantum.X, a) }, func(d Diag) { d.ApplyX(a) }},
						{"x op", func(m *Matrix) { m.ApplyOp(x) }, func(d Diag) { d.ApplyOp(x) }},
						{"Depolarize1", func(m *Matrix) { m.Depolarize1(a, p) }, func(d Diag) { d.Depolarize1(a, p) }},
						{"AmplitudeDamp", func(m *Matrix) { m.AmplitudeDamp(a, p) }, func(d Diag) { d.AmplitudeDamp(a, p) }},
					}
				} else {
					pair := []int{a, b}
					kernels = []kernel{
						{"Depolarize2", func(m *Matrix) { m.Depolarize2(a, b, p) }, func(d Diag) { d.Depolarize2(a, b, p) }},
					}
					for _, op := range []circuit.Op{
						{Kind: circuit.CNOT, Qubits: pair, Label: "cx"},
						{Kind: circuit.CZ, Qubits: pair, Label: "cz"},
						{Kind: circuit.SwapOp, Qubits: pair, Label: "swap"},
						{Kind: circuit.Barrier, Qubits: pair, Label: "barrier"},
					} {
						kernels = append(kernels, kernel{op.Label,
							func(m *Matrix) { m.ApplyOp(op) }, func(d Diag) { d.ApplyOp(op) }})
					}
				}
				for _, k := range kernels {
					rho := randomDensity(n, rng)
					// Round-off leaves the engine's diagonal with tiny
					// imaginary parts; the Diag result must not depend
					// on them.
					for i := 0; i < rho.d; i++ {
						rho.rho[i*rho.d+i] += complex(0, 1e-3*rng.NormFloat64())
					}
					d := Diag(rho.Probabilities())
					k.matrix(rho)
					k.diag(d)
					for i, want := range rho.Probabilities() {
						if !sameBits(d[i], want) {
							t.Fatalf("%s on (%d,%d) of %d qubits, p=%v: diag[%d] = %v (%#x), matrix %v (%#x)",
								k.name, a, b, n, p, i, d[i], math.Float64bits(d[i]), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestDiagClosed: the ops Diag.ApplyOp takes are exactly the ones
// DiagClosed admits, and a gate other than X is not among them.
func TestDiagClosed(t *testing.T) {
	for _, tc := range []struct {
		op   circuit.Op
		want bool
	}{
		{circuit.Op{Kind: circuit.Gate1, Qubits: []int{0}, Matrix: quantum.X}, true},
		{circuit.Op{Kind: circuit.Gate1, Qubits: []int{0}, Matrix: quantum.H}, false},
		{circuit.Op{Kind: circuit.Gate1, Qubits: []int{0}, Matrix: quantum.Z}, false},
		{circuit.Op{Kind: circuit.CNOT, Qubits: []int{0, 1}}, true},
		{circuit.Op{Kind: circuit.CZ, Qubits: []int{0, 1}}, true},
		{circuit.Op{Kind: circuit.SwapOp, Qubits: []int{0, 1}}, true},
		{circuit.Op{Kind: circuit.Barrier}, true},
	} {
		if got := DiagClosed(tc.op); got != tc.want {
			t.Errorf("DiagClosed(%+v) = %v, want %v", tc.op, got, tc.want)
		}
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			Diag(make([]float64, 4)).ApplyOp(tc.op)
			return false
		}()
		if panicked == tc.want {
			t.Errorf("ApplyOp(%+v) panicked %v, DiagClosed %v", tc.op, panicked, tc.want)
		}
	}
}
