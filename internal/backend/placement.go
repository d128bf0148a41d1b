package backend

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"

	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/density"
	"biasmit/internal/device"
	"biasmit/internal/noise"
	"biasmit/internal/quantum"
	"biasmit/internal/schedule"
)

// The noise placement decides which channel follows which op, with which
// probability and for how long: after every gate a depolarizing channel
// with the calibrated gate error (a SWAP pays three CNOTs' worth), then
// amplitude damping on the operand qubits for the gate duration; with
// ScheduleAwareDecay, damping through each idle window before the op
// that ends it, optionally with an X pair straddling the window
// (IdleInversion). It is compiled once per run into a flat list of
// steps that both engines replay: the trajectory engine samples one
// Pauli kick or damping jump per channel step, the exact engine applies
// the channel to a density matrix, or to its diagonal alone in the
// plan's diagonal-closed suffix.

// stepKind names what one step of a plan does.
type stepKind uint8

const (
	stepGate   stepKind = iota // the noiseless circuit op at index op
	stepX                      // an idle-inversion X on q0
	stepDepol1                 // depolarizing with probability p on q0
	stepDepol2                 // two-qubit depolarizing with probability p on (q0, q1)
	stepDamp                   // amplitude damping with decay probability p on q0
)

type step struct {
	kind   stepKind
	op     int
	q0, q1 int
	p      float64
}

// plan is one run's compiled noise placement.
type plan struct {
	c     *circuit.Circuit
	steps []step
	// width is the device register width, the width of every outcome.
	width int
	// active is set only on a compacted plan (see compact): c and steps
	// then act on len(active) qubits, and qubit j of that register is
	// device qubit active[j]. It is nil when the plan acts on the whole
	// device register.
	active []int
}

// channel appends a noise step. A channel with zero probability is the
// identity, and the trajectory engine draws no randomness for it, so it
// is left out of the plan.
func (p *plan) channel(kind stepKind, q0, q1 int, prob float64) {
	if prob > 0 {
		p.steps = append(p.steps, step{kind: kind, q0: q0, q1: q1, p: prob})
	}
}

// placeNoise compiles the noise placement of c on dev under opt's noise
// switches. The circuit's register and connectivity must already have
// been validated.
func placeNoise(c *circuit.Circuit, dev *device.Device, opt Options) (*plan, error) {
	var before [][]schedule.QubitGap
	var final []schedule.QubitGap
	if opt.ScheduleAwareDecay && !opt.NoDecay {
		var err error
		if before, final, err = schedule.PerOpIdle(c, dev); err != nil {
			return nil, err
		}
	}
	p := &plan{c: c, steps: make([]step, 0, 4*len(c.Ops)), width: dev.NumQubits}
	for i, op := range c.Ops {
		if before != nil {
			for _, gap := range before[i] {
				p.idleGap(dev, opt, gap)
			}
		}
		if op.Kind == circuit.Barrier {
			continue
		}
		p.steps = append(p.steps, step{kind: stepGate, op: i})
		if err := p.gateNoise(dev, op, opt); err != nil {
			return nil, fmt.Errorf("backend: op %d (%s): %w", i, op.Label, err)
		}
	}
	for _, gap := range final {
		p.idleGap(dev, opt, gap)
	}
	return p, nil
}

// idleGap places the relaxation of one idle window, optionally with an
// inversion pair straddling the midpoint (Options.IdleInversion).
func (p *plan) idleGap(dev *device.Device, opt Options, gap schedule.QubitGap) {
	q := gap.Qubit
	t1 := dev.Qubits[q].T1
	// Idle inversion only pays off when the gap dwarfs the two X gates.
	if opt.IdleInversion && gap.Duration > 4*dev.Gate1Duration {
		half := (gap.Duration - 2*dev.Gate1Duration) / 2
		for k := 0; k < 2; k++ {
			p.channel(stepDamp, q, 0, noise.DecayProb(half, t1))
			p.steps = append(p.steps, step{kind: stepX, q0: q})
			if !opt.NoGateNoise {
				p.channel(stepDepol1, q, 0, dev.Qubits[q].Gate1Error)
			}
			p.channel(stepDamp, q, 0, noise.DecayProb(dev.Gate1Duration, t1))
		}
		return
	}
	p.channel(stepDamp, q, 0, noise.DecayProb(gap.Duration, t1))
}

// gateNoise places the depolarizing kick and the T1 damping that follow
// one gate.
func (p *plan) gateNoise(dev *device.Device, op circuit.Op, opt Options) error {
	duration := dev.Gate1Duration
	if op.IsTwoQubit() {
		duration = dev.Gate2Duration
		if op.Kind == circuit.SwapOp {
			duration = 3 * dev.Gate2Duration // SWAP decomposes into 3 CNOTs
		}
	}
	if !opt.NoGateNoise {
		if op.IsTwoQubit() {
			p2, err := dev.Gate2Error(op.Qubits[0], op.Qubits[1])
			if err != nil {
				return err
			}
			if op.Kind == circuit.SwapOp {
				p2 = 1 - (1-p2)*(1-p2)*(1-p2)
			}
			p.channel(stepDepol2, op.Qubits[0], op.Qubits[1], p2)
		} else {
			q := op.Qubits[0]
			p.channel(stepDepol1, q, 0, dev.Qubits[q].Gate1Error)
		}
	}
	if !opt.NoDecay {
		for _, q := range op.Qubits {
			p.channel(stepDamp, q, 0, noise.DecayProb(duration, dev.Qubits[q].T1))
		}
	}
	return nil
}

// compact returns the plan restricted to the qubits its steps touch —
// gate operands, gate-noise and idle-gap channels, idle-inversion X —
// renumbered in ascending device order, or p itself when every qubit is
// touched. Trajectories on the compacted register are stream-identical
// to full-width ones (see the package comment); the ascending order
// keeps the compact→device index map monotone, which that argument
// needs. A plan with no steps keeps device qubit 0, since a register
// needs at least one qubit.
func (p *plan) compact() *plan {
	var used uint64
	for _, s := range p.steps {
		switch s.kind {
		case stepGate:
			for _, q := range p.c.Ops[s.op].Qubits {
				used |= 1 << uint(q)
			}
		case stepDepol2:
			used |= 1<<uint(s.q0) | 1<<uint(s.q1)
		default:
			used |= 1 << uint(s.q0)
		}
	}
	if used == 0 {
		used = 1
	}
	if bits.OnesCount64(used) == p.width {
		return p
	}
	var compactOf [bitstring.MaxWidth]int
	active := make([]int, 0, bits.OnesCount64(used))
	for q := 0; q < p.width; q++ {
		if used&(1<<uint(q)) != 0 {
			compactOf[q] = len(active)
			active = append(active, q)
		}
	}
	c := &circuit.Circuit{NumQubits: len(active), Name: p.c.Name, Ops: make([]circuit.Op, 0, len(p.c.Ops))}
	steps := make([]step, len(p.steps))
	for i, s := range p.steps {
		switch s.kind {
		case stepGate:
			op := p.c.Ops[s.op]
			qubits := make([]int, len(op.Qubits))
			for j, q := range op.Qubits {
				qubits[j] = compactOf[q]
			}
			op.Qubits = qubits
			s.op = len(c.Ops)
			c.Ops = append(c.Ops, op)
		case stepDepol2:
			s.q0, s.q1 = compactOf[s.q0], compactOf[s.q1]
		default:
			s.q0 = compactOf[s.q0]
		}
		steps[i] = s
	}
	return &plan{c: c, steps: steps, width: p.width, active: active}
}

// outcome maps a basis index sampled from the plan's register to the
// device outcome, scattering bit j to device qubit active[j]. A sampler
// round-off fallthrough (ok false) becomes the device's last basis state,
// the all-ones string a full-width sampler returns, not the compacted
// register's.
func (p *plan) outcome(i uint64, ok bool) bitstring.Bits {
	if !ok {
		return bitstring.Ones(p.width)
	}
	if p.active != nil {
		var d uint64
		for ; i != 0; i &= i - 1 {
			d |= 1 << uint(p.active[bits.TrailingZeros64(i)])
		}
		i = d
	}
	return bitstring.New(i, p.width)
}

// runTrajectory simulates one noisy execution of the plan into state,
// which is re-prepared to |00…0⟩ first: each channel step samples one
// Pauli kick or one damping jump from rng.
func (p *plan) runTrajectory(state *quantum.State, rng *rand.Rand) {
	state.Reset()
	for _, s := range p.steps {
		switch s.kind {
		case stepGate:
			circuit.ApplyOp(state, p.c.Ops[s.op])
		case stepX:
			state.ApplyPauli(quantum.PauliX, s.q0)
		case stepDepol1:
			state.ApplyPauli(noise.SamplePauli1(s.p, rng), s.q0)
		case stepDepol2:
			pa, pb := noise.SamplePauli2(s.p, rng)
			state.ApplyPauli(pa, s.q0)
			state.ApplyPauli(pb, s.q1)
		case stepDamp:
			state.ApplyAmplitudeDamping(s.q0, s.p, rng)
		}
	}
}

// evolve applies steps, a run of the plan's steps, exactly to the
// density matrix m, stopping between steps if ctx ends.
func (p *plan) evolve(ctx context.Context, m *density.Matrix, steps []step) error {
	for _, s := range steps {
		if err := ctx.Err(); err != nil {
			return err
		}
		switch s.kind {
		case stepGate:
			m.ApplyOp(p.c.Ops[s.op])
		case stepX:
			m.Apply1(quantum.X, s.q0)
		case stepDepol1:
			m.Depolarize1(s.q0, s.p)
		case stepDepol2:
			m.Depolarize2(s.q0, s.q1, s.p)
		case stepDamp:
			m.AmplitudeDamp(s.q0, s.p)
		}
	}
	return nil
}

// diagClosed reports whether step s changes diag(ρ) by a function of
// diag(ρ) alone, so evolveDiag can apply it: every noise step and
// idle-inversion X, and a gate step whose op density.DiagClosed admits.
func (p *plan) diagClosed(s step) bool {
	return s.kind != stepGate || density.DiagClosed(p.c.Ops[s.op])
}

// evolveDiag applies steps, each of them diagClosed, to diag(ρ) in d,
// with the arithmetic evolve does on ρ's diagonal.
func (p *plan) evolveDiag(d density.Diag, steps []step) {
	for _, s := range steps {
		switch s.kind {
		case stepGate:
			d.ApplyOp(p.c.Ops[s.op])
		case stepX:
			d.ApplyX(s.q0)
		case stepDepol1:
			d.Depolarize1(s.q0, s.p)
		case stepDepol2:
			d.Depolarize2(s.q0, s.q1, s.p)
		case stepDamp:
			d.AmplitudeDamp(s.q0, s.p)
		}
	}
}
