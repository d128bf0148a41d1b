// Package circuit defines the intermediate representation of quantum
// programs: an ordered list of gate operations on a fixed-size register,
// ending in a full-register measurement.
//
// Circuits are what the kernels in internal/kernels emit, what the
// transpiler in internal/transpile rewrites onto device qubits, and what
// the backend executes. The Invert-and-Measure policies in internal/core
// act purely at this level, appending X gates before the measurement
// (paper §5.1) — they never need to inspect the quantum state.
package circuit

import (
	"fmt"
	"strings"

	"biasmit/internal/bitstring"
	"biasmit/internal/quantum"
)

// OpKind enumerates the supported operations.
type OpKind int

// Supported operation kinds. Gate1 covers every single-qubit unitary via
// an explicit matrix; the named two-qubit kinds are kept distinct because
// devices calibrate them separately and the router rewrites them.
const (
	Gate1   OpKind = iota // single-qubit unitary (Matrix set)
	CNOT                  // controlled-X: Qubits[0] control, Qubits[1] target
	CZ                    // controlled-Z, symmetric
	SwapOp                // SWAP, symmetric
	Barrier               // scheduling barrier; no quantum effect
)

// Op is one operation in a circuit.
type Op struct {
	Kind   OpKind
	Qubits []int           // operand qubits (device or logical indices)
	Matrix quantum.Matrix2 // for Gate1
	Label  string          // gate name for printing, e.g. "h", "x", "rz(0.3)"
}

// Arity returns the number of qubit operands the op touches.
func (o Op) Arity() int { return len(o.Qubits) }

// IsTwoQubit reports whether the op is one of the entangling kinds, the
// expensive and error-prone class on NISQ devices.
func (o Op) IsTwoQubit() bool { return o.Kind == CNOT || o.Kind == CZ || o.Kind == SwapOp }

// Circuit is an ordered gate list on a register of NumQubits qubits.
// Gates act on qubit indices [0, NumQubits). All qubits are measured at
// the end of execution, in keeping with the NISQ model of computation.
type Circuit struct {
	NumQubits int
	Ops       []Op
	Name      string
}

// New returns an empty circuit on n qubits.
func New(n int, name string) *Circuit {
	if n < 1 || n > quantum.MaxQubits {
		panic(fmt.Sprintf("circuit: qubit count %d out of range [1,%d]", n, quantum.MaxQubits))
	}
	return &Circuit{NumQubits: n, Name: name}
}

func (c *Circuit) checkQubit(q int) {
	if q < 0 || q >= c.NumQubits {
		panic(fmt.Sprintf("circuit: qubit %d out of range [0,%d)", q, c.NumQubits))
	}
}

func (c *Circuit) add(op Op) *Circuit {
	for _, q := range op.Qubits {
		c.checkQubit(q)
	}
	if op.Arity() == 2 && op.Qubits[0] == op.Qubits[1] {
		panic(fmt.Sprintf("circuit: %s on identical qubits %d", op.Label, op.Qubits[0]))
	}
	c.Ops = append(c.Ops, op)
	return c
}

// Gate appends an arbitrary single-qubit unitary.
func (c *Circuit) Gate(m quantum.Matrix2, q int, label string) *Circuit {
	return c.add(Op{Kind: Gate1, Qubits: []int{q}, Matrix: m, Label: label})
}

// X appends a Pauli-X (the Invert-and-Measure inversion gate).
func (c *Circuit) X(q int) *Circuit { return c.Gate(quantum.X, q, "x") }

// Y appends a Pauli-Y.
func (c *Circuit) Y(q int) *Circuit { return c.Gate(quantum.Y, q, "y") }

// Z appends a Pauli-Z.
func (c *Circuit) Z(q int) *Circuit { return c.Gate(quantum.Z, q, "z") }

// H appends a Hadamard.
func (c *Circuit) H(q int) *Circuit { return c.Gate(quantum.H, q, "h") }

// S appends the phase gate.
func (c *Circuit) S(q int) *Circuit { return c.Gate(quantum.S, q, "s") }

// T appends the π/8 gate.
func (c *Circuit) T(q int) *Circuit { return c.Gate(quantum.T, q, "t") }

// RX appends an X rotation.
func (c *Circuit) RX(theta float64, q int) *Circuit {
	return c.Gate(quantum.RX(theta), q, fmt.Sprintf("rx(%.17g)", theta))
}

// RY appends a Y rotation.
func (c *Circuit) RY(theta float64, q int) *Circuit {
	return c.Gate(quantum.RY(theta), q, fmt.Sprintf("ry(%.17g)", theta))
}

// RZ appends a Z rotation.
func (c *Circuit) RZ(theta float64, q int) *Circuit {
	return c.Gate(quantum.RZ(theta), q, fmt.Sprintf("rz(%.17g)", theta))
}

// CX appends a CNOT with the given control and target.
func (c *Circuit) CX(control, target int) *Circuit {
	return c.add(Op{Kind: CNOT, Qubits: []int{control, target}, Label: "cx"})
}

// CZGate appends a controlled-Z.
func (c *Circuit) CZGate(a, b int) *Circuit {
	return c.add(Op{Kind: CZ, Qubits: []int{a, b}, Label: "cz"})
}

// Swap appends a SWAP.
func (c *Circuit) Swap(a, b int) *Circuit {
	return c.add(Op{Kind: SwapOp, Qubits: []int{a, b}, Label: "swap"})
}

// AddBarrier appends a scheduling barrier over all qubits.
func (c *Circuit) AddBarrier() *Circuit {
	c.Ops = append(c.Ops, Op{Kind: Barrier, Label: "barrier"})
	return c
}

// Sdg appends the inverse phase gate.
func (c *Circuit) Sdg(q int) *Circuit { return c.Gate(quantum.Sdg, q, "sdg") }

// Tdg appends the inverse π/8 gate.
func (c *Circuit) Tdg(q int) *Circuit { return c.Gate(quantum.Tdg, q, "tdg") }

// CCX appends a Toffoli (controlled-controlled-X) using the standard
// 6-CNOT, 7-T decomposition, so the result stays inside the device-native
// gate set. Controls a and b, target t.
func (c *Circuit) CCX(a, b, t int) *Circuit {
	if a == b || a == t || b == t {
		panic(fmt.Sprintf("circuit: CCX with repeated qubits %d,%d,%d", a, b, t))
	}
	c.H(t)
	c.CX(b, t)
	c.Tdg(t)
	c.CX(a, t)
	c.T(t)
	c.CX(b, t)
	c.Tdg(t)
	c.CX(a, t)
	c.T(b)
	c.T(t)
	c.H(t)
	c.CX(a, b)
	c.T(a)
	c.Tdg(b)
	c.CX(a, b)
	return c
}

// CCZ appends a controlled-controlled-Z (symmetric in its operands) via
// the Toffoli decomposition conjugated by H on the target.
func (c *Circuit) CCZ(a, b, t int) *Circuit {
	c.H(t)
	c.CCX(a, b, t)
	c.H(t)
	return c
}

// ZZ appends exp(-iθ/2·Z⊗Z) on (a,b) using the CNOT–RZ–CNOT identity,
// the QAOA cost-layer building block.
func (c *Circuit) ZZ(theta float64, a, b int) *Circuit {
	c.CX(a, b)
	c.RZ(theta, b)
	c.CX(a, b)
	return c
}

// PrepareBasis appends X gates that take |00…0⟩ to |b⟩. This is how the
// brute-force RBMS characterization prepares each basis state (§3.1).
func (c *Circuit) PrepareBasis(b bitstring.Bits) *Circuit {
	if b.Width() != c.NumQubits {
		panic(fmt.Sprintf("circuit: basis width %d does not match register %d", b.Width(), c.NumQubits))
	}
	for q := 0; q < c.NumQubits; q++ {
		if b.Bit(q) {
			c.X(q)
		}
	}
	return c
}

// ApplyInversionString appends an X gate on every qubit where s has a 1.
// This is the pre-measurement step of Invert-and-Measure: executing the
// program, applying s, measuring, then XOR-ing the classical result with
// s yields a logically identical but differently biased measurement.
func (c *Circuit) ApplyInversionString(s bitstring.Bits) *Circuit {
	if s.Width() != c.NumQubits {
		panic(fmt.Sprintf("circuit: inversion string width %d does not match register %d", s.Width(), c.NumQubits))
	}
	for q := 0; q < c.NumQubits; q++ {
		if s.Bit(q) {
			c.X(q)
		}
	}
	return c
}

// Inverse returns the adjoint circuit C†: ops in reverse order, each
// inverted. Gate labels are rewritten for the named gates (s↔sdg, t↔tdg,
// rotations negate their angle); anonymous unitaries get a "†" suffix.
// Barriers are preserved in place. C.Append(C.Inverse()) is the identity,
// the building block of zero-noise extrapolation's circuit folding.
func (c *Circuit) Inverse() *Circuit {
	out := New(c.NumQubits, c.Name+"†")
	for i := len(c.Ops) - 1; i >= 0; i-- {
		op := c.Ops[i]
		switch op.Kind {
		case Barrier:
			out.AddBarrier()
		case CNOT, CZ, SwapOp:
			// All three two-qubit kinds are self-inverse.
			cp := op
			cp.Qubits = append([]int(nil), op.Qubits...)
			out.Ops = append(out.Ops, cp)
		case Gate1:
			out.Gate(op.Matrix.Dagger(), op.Qubits[0], inverseLabel(op.Label))
		}
	}
	return out
}

// inverseLabel rewrites a gate label for its adjoint.
func inverseLabel(label string) string {
	switch label {
	case "x", "y", "z", "h", "id":
		return label // self-inverse
	case "s":
		return "sdg"
	case "sdg":
		return "s"
	case "t":
		return "tdg"
	case "tdg":
		return "t"
	}
	for _, rot := range []string{"rx", "ry", "rz"} {
		prefix := rot + "("
		if strings.HasPrefix(label, prefix) && strings.HasSuffix(label, ")") {
			arg := label[len(prefix) : len(label)-1]
			if strings.HasPrefix(arg, "-") {
				return prefix + arg[1:] + ")"
			}
			return prefix + "-" + arg + ")"
		}
	}
	return label + "†"
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{NumQubits: c.NumQubits, Name: c.Name, Ops: make([]Op, len(c.Ops))}
	for i, op := range c.Ops {
		cp := op
		cp.Qubits = append([]int(nil), op.Qubits...)
		out.Ops[i] = cp
	}
	return out
}

// Append concatenates other's ops onto c. The registers must match.
func (c *Circuit) Append(other *Circuit) *Circuit {
	if other.NumQubits != c.NumQubits {
		panic(fmt.Sprintf("circuit: append %d-qubit circuit to %d-qubit circuit", other.NumQubits, c.NumQubits))
	}
	for _, op := range other.Ops {
		cp := op
		cp.Qubits = append([]int(nil), op.Qubits...)
		c.Ops = append(c.Ops, cp)
	}
	return c
}

// Remap returns a copy of c acting on a register of newSize qubits with
// every operand q replaced by layout[q]. The transpiler uses this to
// place a logical circuit onto physical device qubits.
func (c *Circuit) Remap(layout []int, newSize int) *Circuit {
	if len(layout) != c.NumQubits {
		panic(fmt.Sprintf("circuit: layout size %d does not match register %d", len(layout), c.NumQubits))
	}
	seen := make(map[int]bool, len(layout))
	for _, p := range layout {
		if p < 0 || p >= newSize {
			panic(fmt.Sprintf("circuit: layout target %d out of range [0,%d)", p, newSize))
		}
		if seen[p] {
			panic(fmt.Sprintf("circuit: layout maps two qubits to %d", p))
		}
		seen[p] = true
	}
	out := New(newSize, c.Name)
	for _, op := range c.Ops {
		cp := op
		cp.Qubits = make([]int, len(op.Qubits))
		for i, q := range op.Qubits {
			cp.Qubits[i] = layout[q]
		}
		out.Ops = append(out.Ops, cp)
	}
	return out
}

// GateCounts returns the number of single-qubit gates, two-qubit gates,
// and total non-barrier operations.
func (c *Circuit) GateCounts() (oneQ, twoQ, total int) {
	for _, op := range c.Ops {
		switch {
		case op.Kind == Barrier:
		case op.IsTwoQubit():
			twoQ++
			total++
		default:
			oneQ++
			total++
		}
	}
	return oneQ, twoQ, total
}

// Depth returns the circuit depth: the length of the longest chain of
// operations on any qubit, with barriers synchronizing all qubits.
func (c *Circuit) Depth() int {
	level := make([]int, c.NumQubits)
	for _, op := range c.Ops {
		if op.Kind == Barrier {
			maxl := 0
			for _, l := range level {
				if l > maxl {
					maxl = l
				}
			}
			for q := range level {
				level[q] = maxl
			}
			continue
		}
		maxl := 0
		for _, q := range op.Qubits {
			if level[q] > maxl {
				maxl = level[q]
			}
		}
		for _, q := range op.Qubits {
			level[q] = maxl + 1
		}
	}
	maxl := 0
	for _, l := range level {
		if l > maxl {
			maxl = l
		}
	}
	return maxl
}

// Simulate runs the circuit on an ideal (noiseless) simulator starting
// from |00…0⟩ and returns the final state.
func (c *Circuit) Simulate() *quantum.State {
	s := quantum.NewState(c.NumQubits)
	for _, op := range c.Ops {
		applyOp(s, op)
	}
	return s
}

// applyOp applies one circuit op to a state. Shared with the noisy
// backend, which interleaves noise around it.
func applyOp(s *quantum.State, op Op) {
	switch op.Kind {
	case Gate1:
		s.Apply1(op.Matrix, op.Qubits[0])
	case CNOT:
		s.ApplyCNOT(op.Qubits[0], op.Qubits[1])
	case CZ:
		s.ApplyCZ(op.Qubits[0], op.Qubits[1])
	case SwapOp:
		s.ApplySWAP(op.Qubits[0], op.Qubits[1])
	case Barrier:
	default:
		panic(fmt.Sprintf("circuit: unknown op kind %d", op.Kind))
	}
}

// ApplyOp applies op to the state s. Exported for the backend.
func ApplyOp(s *quantum.State, op Op) { applyOp(s, op) }

// String renders the circuit as one line per op, QASM-like.
func (c *Circuit) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "// %s: %d qubits, %d ops\n", c.Name, c.NumQubits, len(c.Ops))
	for _, op := range c.Ops {
		if op.Kind == Barrier {
			sb.WriteString("barrier;\n")
			continue
		}
		sb.WriteString(op.Label)
		sb.WriteByte(' ')
		for i, q := range op.Qubits {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "q[%d]", q)
		}
		sb.WriteString(";\n")
	}
	return sb.String()
}
