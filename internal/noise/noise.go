// Package noise models the error processes of NISQ hardware that the
// paper characterizes and mitigates:
//
//   - Asymmetric readout error: each qubit i is misread with
//     state-dependent probabilities P01 (prepared 0, read 1) and P10
//     (prepared 1, read 0). On IBM machines P10 > P01 because the qubit
//     relaxes toward |0⟩ during the long readout pulse; this asymmetry is
//     the source of the Hamming-weight bias in Figures 4 and 5.
//   - Correlated readout flips: a qubit's readout error can depend on the
//     true state of a neighbouring qubit (readout crosstalk). These terms
//     break the clean Hamming-weight correlation and produce the
//     "arbitrary bias" observed on ibmqx4 (Figure 11).
//   - Depolarizing gate noise: after each gate a uniformly random
//     non-identity Pauli is applied with the gate's error probability.
//   - T1 decay: exponential relaxation with rate 1/T1, applied during
//     gates (amplitude damping trajectories) and during the readout pulse
//     (folded into the effective P10).
//
// The readout channel is classical — it corrupts the measured bit string
// after the quantum measurement — which matches how readout error behaves
// physically and keeps the exact per-state success probability (BMS)
// computable in closed form for tests and for the AIM oracle.
package noise

import (
	"fmt"
	"math"
	"math/rand"

	"biasmit/internal/bitstring"
	"biasmit/internal/quantum"
)

// ReadoutError holds the two misread probabilities of one qubit.
type ReadoutError struct {
	P01 float64 // P(read 1 | true 0)
	P10 float64 // P(read 0 | true 1)
}

// Validate reports an error if either probability is outside [0,1].
func (r ReadoutError) Validate() error {
	if r.P01 < 0 || r.P01 > 1 || r.P10 < 0 || r.P10 > 1 {
		return fmt.Errorf("noise: readout probabilities out of range: %+v", r)
	}
	return nil
}

// Average returns the mean of the two misread probabilities — the single
// "measurement error rate" number IBM reports and the paper's Table 1
// summarizes.
func (r ReadoutError) Average() float64 { return (r.P01 + r.P10) / 2 }

// WithT1Decay returns a copy of r whose P10 additionally includes
// relaxation during a readout pulse of the given duration: the qubit
// decays 1→0 with probability 1−exp(−t/T1) before the bare discrimination
// error applies.
func (r ReadoutError) WithT1Decay(duration, t1 float64) ReadoutError {
	if t1 <= 0 || duration <= 0 {
		return r
	}
	pDecay := 1 - math.Exp(-duration/t1)
	// Decay first (1→0), then discriminator error on the resulting state:
	// still 1: misread as 0 with P10. Decayed to 0: misread back as 1
	// with P01.
	r.P10 = pDecay*(1-r.P01) + (1-pDecay)*r.P10
	return r
}

// CorrelatedFlip adds extra readout-flip probability on Target when the
// *true* (pre-readout) state of Trigger equals TriggerState. Extra
// means: the target's effective misread probability for this shot
// becomes p + PExtra − p·PExtra (an independent extra flip chance).
type CorrelatedFlip struct {
	Trigger      int
	TriggerState bool
	Target       int
	PExtra       float64
}

// Validate reports an error for out-of-range fields.
func (c CorrelatedFlip) Validate(numQubits int) error {
	if c.Trigger < 0 || c.Trigger >= numQubits || c.Target < 0 || c.Target >= numQubits {
		return fmt.Errorf("noise: correlated flip qubits out of range: %+v", c)
	}
	if c.Trigger == c.Target {
		return fmt.Errorf("noise: correlated flip with trigger == target %d", c.Trigger)
	}
	if c.PExtra < 0 || c.PExtra > 1 {
		return fmt.Errorf("noise: correlated flip probability %v out of range", c.PExtra)
	}
	return nil
}

// ReadoutModel is the full classical readout channel of a device.
type ReadoutModel struct {
	PerQubit     []ReadoutError
	Correlations []CorrelatedFlip
}

// NumQubits returns the register size of the model.
func (m *ReadoutModel) NumQubits() int { return len(m.PerQubit) }

// Validate checks every component.
func (m *ReadoutModel) Validate() error {
	for i, r := range m.PerQubit {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("qubit %d: %w", i, err)
		}
	}
	for _, c := range m.Correlations {
		if err := c.Validate(len(m.PerQubit)); err != nil {
			return err
		}
	}
	return nil
}

// flipProbs returns, for the given true state, the per-qubit probability
// that the read bit differs from the true bit. Because correlated terms
// are conditioned only on the true state, the flips are conditionally
// independent given x, so the channel factorizes per true state.
func (m *ReadoutModel) flipProbs(x bitstring.Bits) []float64 {
	p := make([]float64, len(m.PerQubit))
	for i, r := range m.PerQubit {
		if x.Bit(i) {
			p[i] = r.P10
		} else {
			p[i] = r.P01
		}
	}
	for _, c := range m.Correlations {
		if x.Bit(c.Trigger) == c.TriggerState {
			p[c.Target] = p[c.Target] + c.PExtra - p[c.Target]*c.PExtra
		}
	}
	return p
}

// Apply corrupts one measured outcome: given the true post-measurement
// state x, it returns the classically recorded string.
func (m *ReadoutModel) Apply(x bitstring.Bits, rng *rand.Rand) bitstring.Bits {
	if x.Width() != len(m.PerQubit) {
		panic(fmt.Sprintf("noise: outcome width %d does not match model %d", x.Width(), len(m.PerQubit)))
	}
	p := m.flipProbs(x)
	out := x
	for i, pi := range p {
		if pi > 0 && rng.Float64() < pi {
			out = out.SetBit(i, !out.Bit(i))
		}
	}
	return out
}

// CompiledReadout is a ReadoutModel with its per-qubit flip thresholds
// precomputed for the shot loop: the two misread probabilities of every
// qubit live in flat arrays and the correlated-flip terms are grouped by
// target, so Apply computes each qubit's effective flip probability with
// no allocation and no scan over the full correlation list per shot.
//
// Stream identity: CompiledReadout.Apply consumes the rng exactly as
// ReadoutModel.Apply does — one Float64 per qubit whose flip probability
// is positive, in ascending qubit order, compared with `<` against the
// same IEEE-754 probability values (correlations fold in the same order
// as the model's Correlations slice) — so the corrupted outcome stream
// is byte-identical. FlipTable lays out the same probabilities per true
// outcome, so a loop that draws against a row keeps the stream too; the
// backend's exact engine samples through it. The equality tests in this
// package, the backend fast-path suite and the exact sampler's oracle
// assert exactly that.
//
// Compile snapshots the model: mutations to the ReadoutModel after
// compiling are not reflected.
type CompiledReadout struct {
	model        *ReadoutModel
	p01, p10     []float64
	corrByTarget [][]CorrelatedFlip // nil when the model has no correlations
}

// Compile precomputes the per-qubit flip thresholds of m.
func (m *ReadoutModel) Compile() *CompiledReadout {
	n := len(m.PerQubit)
	c := &CompiledReadout{
		model: m,
		p01:   make([]float64, n),
		p10:   make([]float64, n),
	}
	for i, r := range m.PerQubit {
		c.p01[i] = r.P01
		c.p10[i] = r.P10
	}
	if len(m.Correlations) > 0 {
		c.corrByTarget = make([][]CorrelatedFlip, n)
		// Grouping by target preserves the Correlations slice order within
		// each target, so repeated correlations on one qubit fold in the
		// same order as ReadoutModel.flipProbs.
		for _, corr := range m.Correlations {
			c.corrByTarget[corr.Target] = append(c.corrByTarget[corr.Target], corr)
		}
	}
	return c
}

// Model returns the ReadoutModel this was compiled from.
func (c *CompiledReadout) Model() *ReadoutModel { return c.model }

// NumQubits returns the register size of the compiled model.
func (c *CompiledReadout) NumQubits() int { return len(c.p01) }

// Apply corrupts one measured outcome exactly as ReadoutModel.Apply
// does (see the type comment for the stream-identity contract), without
// allocating.
func (c *CompiledReadout) Apply(x bitstring.Bits, rng *rand.Rand) bitstring.Bits {
	n := len(c.p01)
	if x.Width() != n {
		panic(fmt.Sprintf("noise: outcome width %d does not match model %d", x.Width(), n))
	}
	v := x.Uint64()
	out := v
	for i := 0; i < n; i++ {
		if pi := c.flipProb(v, i); pi > 0 && rng.Float64() < pi {
			out ^= 1 << uint(i)
		}
	}
	return bitstring.New(out, n)
}

// flipProb is qubit i's effective flip probability when the true
// outcome is x, its packed value: the qubit's misread probability for
// its bit of x, with every correlation on it whose trigger x satisfies
// folded in the model's Correlations order.
func (c *CompiledReadout) flipProb(x uint64, i int) float64 {
	pi := c.p01[i]
	if x>>uint(i)&1 == 1 {
		pi = c.p10[i]
	}
	if c.corrByTarget != nil {
		for _, corr := range c.corrByTarget[i] {
			if (x>>uint(corr.Trigger)&1 == 1) == corr.TriggerState {
				pi = pi + corr.PExtra - pi*corr.PExtra
			}
		}
	}
	return pi
}

// FlipTable appends to dst the flip probability Apply compares each
// draw against, for every true outcome: 2^n rows in packed order, row x
// holding qubits 0 to n−1. For each true outcome x, drawing
// rng.Float64() < t for every positive t of row x, in order, and
// flipping the qubits whose draw succeeds consumes rng and corrupts x
// exactly as Apply does.
func (c *CompiledReadout) FlipTable(dst []float64) []float64 {
	n := len(c.p01)
	for x := uint64(0); x < 1<<uint(n); x++ {
		for i := 0; i < n; i++ {
			dst = append(dst, c.flipProb(x, i))
		}
	}
	return dst
}

// SuccessProb returns the exact probability that state x is read back
// correctly — the paper's Basis Measurement Strength (BMS) of x.
func (m *ReadoutModel) SuccessProb(x bitstring.Bits) float64 {
	if x.Width() != len(m.PerQubit) {
		panic(fmt.Sprintf("noise: outcome width %d does not match model %d", x.Width(), len(m.PerQubit)))
	}
	prob := 1.0
	for _, pi := range m.flipProbs(x) {
		prob *= 1 - pi
	}
	return prob
}

// SubsetSuccessProb returns the probability that every qubit in the given
// subset is read correctly when the full register's true state is x.
// Qubits outside the subset may read anything. This is the exact value
// that windowed characterization (AWCT) estimates for one window.
func (m *ReadoutModel) SubsetSuccessProb(x bitstring.Bits, qubits []int) float64 {
	if x.Width() != len(m.PerQubit) {
		panic(fmt.Sprintf("noise: outcome width %d does not match model %d", x.Width(), len(m.PerQubit)))
	}
	p := m.flipProbs(x)
	prob := 1.0
	for _, q := range qubits {
		if q < 0 || q >= len(m.PerQubit) {
			panic(fmt.Sprintf("noise: subset qubit %d out of range", q))
		}
		prob *= 1 - p[q]
	}
	return prob
}

// TransitionProb returns the exact P(read y | true x).
func (m *ReadoutModel) TransitionProb(x, y bitstring.Bits) float64 {
	if x.Width() != len(m.PerQubit) || y.Width() != len(m.PerQubit) {
		panic("noise: width mismatch in TransitionProb")
	}
	prob := 1.0
	for i, pi := range m.flipProbs(x) {
		if x.Bit(i) == y.Bit(i) {
			prob *= 1 - pi
		} else {
			prob *= pi
		}
	}
	return prob
}

// ExactBMS returns the success probability of every basis state, indexed
// by packed basis value. It is the ground truth the characterization
// techniques in internal/core estimate. Cost is O(n·2^n).
func (m *ReadoutModel) ExactBMS() []float64 {
	n := len(m.PerQubit)
	out := make([]float64, 1<<uint(n))
	for _, b := range bitstring.All(n) {
		out[b.Uint64()] = m.SuccessProb(b)
	}
	return out
}

// GateErrors holds the depolarizing error probability of each gate class
// on a device location.
type GateErrors struct {
	P1 float64 // single-qubit gate error probability
	P2 float64 // two-qubit gate error probability
}

// SamplePauli1 draws the depolarizing kick after a single-qubit gate with
// error probability p: identity with probability 1−p, otherwise a
// uniformly random X, Y, or Z.
func SamplePauli1(p float64, rng *rand.Rand) quantum.Pauli {
	if p <= 0 || rng.Float64() >= p {
		return quantum.PauliI
	}
	return quantum.Pauli(1 + rng.Intn(3))
}

// SamplePauli2 draws the depolarizing kick after a two-qubit gate with
// error probability p: (I,I) with probability 1−p, otherwise a uniformly
// random non-identity pair from the 15 two-qubit Paulis.
func SamplePauli2(p float64, rng *rand.Rand) (quantum.Pauli, quantum.Pauli) {
	if p <= 0 || rng.Float64() >= p {
		return quantum.PauliI, quantum.PauliI
	}
	k := 1 + rng.Intn(15) // 1..15 excludes (I,I)
	return quantum.Pauli(k / 4), quantum.Pauli(k % 4)
}

// DecayProb converts an idle/gate duration and a T1 time into the
// amplitude-damping jump probability 1−exp(−t/T1).
func DecayProb(duration, t1 float64) float64 {
	if t1 <= 0 || duration <= 0 {
		return 0
	}
	return 1 - math.Exp(-duration/t1)
}
