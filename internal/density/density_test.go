package density

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/noise"
	"biasmit/internal/quantum"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewIsPureGroundState(t *testing.T) {
	m := New(3)
	if !approx(m.Trace(), 1) || !approx(m.Purity(), 1) {
		t.Errorf("trace %v purity %v", m.Trace(), m.Purity())
	}
	if !approx(real(m.At(0, 0)), 1) {
		t.Errorf("rho[0][0] = %v", m.At(0, 0))
	}
}

func TestUnitaryEvolutionMatchesStateVector(t *testing.T) {
	// A pure-state circuit must give identical probabilities in both
	// simulators.
	c := circuit.New(3, "mix").H(0).CX(0, 1).RY(0.7, 2).CZGate(1, 2).Swap(0, 2).RZ(-1.1, 1).T(0)
	m := New(3)
	for _, op := range c.Ops {
		m.ApplyOp(op)
	}
	sv := c.Simulate().Probabilities()
	dm := m.Probabilities()
	for i := range sv {
		if !approx(sv[i], dm[i]) {
			t.Errorf("P(%d): statevector %v, density %v", i, sv[i], dm[i])
		}
	}
	if !approx(m.Purity(), 1) {
		t.Errorf("unitary evolution lost purity: %v", m.Purity())
	}
}

func TestDepolarize1FullyMixesSingleQubit(t *testing.T) {
	m := New(1)
	m.Depolarize1(0, 0.75) // p=3/4 is the fully depolarizing point
	p := m.Probabilities()
	if !approx(p[0], 0.5) || !approx(p[1], 0.5) {
		t.Errorf("probabilities %v", p)
	}
	if !approx(m.Purity(), 0.5) {
		t.Errorf("purity = %v, want 1/2 (maximally mixed)", m.Purity())
	}
}

func TestDepolarizePreservesTrace(t *testing.T) {
	m := New(3)
	m.Apply1(quantum.H, 0)
	m.ApplyCNOT(0, 1)
	m.Depolarize1(0, 0.1)
	m.Depolarize2(0, 2, 0.2)
	if !approx(m.Trace(), 1) {
		t.Errorf("trace = %v", m.Trace())
	}
	if m.Purity() >= 1 {
		t.Errorf("noise did not reduce purity: %v", m.Purity())
	}
}

func TestAmplitudeDampExactChannel(t *testing.T) {
	// |1⟩ under damping γ: P(1) = 1−γ exactly.
	const gamma = 0.3
	m := New(1)
	m.Apply1(quantum.X, 0)
	m.AmplitudeDamp(0, gamma)
	p := m.Probabilities()
	if !approx(p[1], 1-gamma) || !approx(p[0], gamma) {
		t.Errorf("probabilities %v", p)
	}
	// Coherences shrink by √(1−γ): check on |+⟩.
	plus := New(1)
	plus.Apply1(quantum.H, 0)
	plus.AmplitudeDamp(0, gamma)
	if got := real(plus.At(0, 1)); !approx(got, 0.5*math.Sqrt(1-gamma)) {
		t.Errorf("coherence = %v, want %v", got, 0.5*math.Sqrt(1-gamma))
	}
}

func TestAmplitudeDampTraceAndValidation(t *testing.T) {
	m := New(2)
	m.Apply1(quantum.H, 0)
	m.ApplyCNOT(0, 1)
	m.AmplitudeDamp(1, 0.4)
	if !approx(m.Trace(), 1) {
		t.Errorf("trace = %v", m.Trace())
	}
	defer func() {
		if recover() == nil {
			t.Error("gamma > 1 accepted")
		}
	}()
	m.AmplitudeDamp(0, 1.5)
}

func TestOutputDistAppliesReadout(t *testing.T) {
	m := New(2)
	m.Apply1(quantum.X, 0) // |01⟩ (qubit 0 set)
	readout := &noise.ReadoutModel{PerQubit: []noise.ReadoutError{
		{P01: 0, P10: 0.2},
		{P01: 0.1, P10: 0},
	}}
	d := m.OutputDist(readout)
	// True state q0=1,q1=0. P(read 01) = 0.8·0.9; P(read 00)=0.2·0.9;
	// P(read 11)=0.8·0.1; P(read 10)=0.2·0.1.
	if got := d.Prob(bitstring.MustParse("01")); !approx(got, 0.72) {
		t.Errorf("P(01) = %v", got)
	}
	if got := d.Prob(bitstring.MustParse("00")); !approx(got, 0.18) {
		t.Errorf("P(00) = %v", got)
	}
	if !approx(d.Mass(), 1) {
		t.Errorf("mass = %v", d.Mass())
	}
}

func TestExactBMSMatchesNoiseModel(t *testing.T) {
	// For a pure basis-state preparation with no gate noise (set error
	// rates to zero), OutputDist's diagonal must equal the noise model's
	// TransitionProb row.
	dev := device.IBMQX4()
	x := bitstring.MustParse("10101")
	m := New(5)
	for q := 0; q < 5; q++ {
		if x.Bit(q) {
			m.Apply1(quantum.X, q)
		}
	}
	readout := dev.ReadoutModel()
	d := m.OutputDist(readout)
	for _, y := range bitstring.All(5) {
		want := readout.TransitionProb(x, y)
		if math.Abs(d.Prob(y)-want) > 1e-9 {
			t.Errorf("P(%v) = %v, want %v", y, d.Prob(y), want)
		}
	}
}

func TestPanicsOnBadArguments(t *testing.T) {
	cases := []func(){
		func() { New(0) },
		func() { New(MaxQubits + 1) },
		func() { New(2).Apply1(quantum.X, 2) },
		func() { New(2).ApplyCNOT(1, 1) },
		func() { New(2).ApplySWAP(0, 0) },
		func() { New(2).ApplyCZ(1, 1) },
		func() { New(2).Depolarize2(0, 0, 0.1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: random unitary circuits keep trace 1 and purity 1, and the
// diagonal matches the state-vector simulator exactly; adding channels
// keeps trace 1 while strictly reducing purity.
func TestQuickDensityInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 3
		c := circuit.New(n, "rand")
		for i := 0; i < 12; i++ {
			switch rng.Intn(5) {
			case 0:
				c.H(rng.Intn(n))
			case 1:
				c.RY(rng.Float64()*4-2, rng.Intn(n))
			case 2:
				c.RZ(rng.Float64()*4-2, rng.Intn(n))
			case 3:
				a := rng.Intn(n)
				c.CX(a, (a+1)%n)
			case 4:
				a := rng.Intn(n)
				c.CZGate(a, (a+1)%n)
			}
		}
		m := New(n)
		for _, op := range c.Ops {
			m.ApplyOp(op)
		}
		if math.Abs(m.Trace()-1) > 1e-9 || math.Abs(m.Purity()-1) > 1e-9 {
			return false
		}
		sv := c.Simulate().Probabilities()
		dm := m.Probabilities()
		for i := range sv {
			if math.Abs(sv[i]-dm[i]) > 1e-9 {
				return false
			}
		}
		m.Depolarize1(rng.Intn(n), 0.05+0.2*rng.Float64())
		m.AmplitudeDamp(rng.Intn(n), 0.05+0.2*rng.Float64())
		return math.Abs(m.Trace()-1) < 1e-9 && m.Purity() < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(107))}); err != nil {
		t.Error(err)
	}
}

// The Kraus-sum oracle. Every in-place kernel must equal Σ_k K_k ρ K_k†
// evaluated entry by entry from the channel's textbook Kraus operators —
// no block walks, permutations or twirl identities — on random ρ.

// kraus is one local operator; its row and column indices put the first
// operand qubit in bit 0 and the second (if any) in bit 1.
type kraus [][]complex128

// krausSum returns Σ_k K_k ρ K_k† for local Kraus operators on qubits.
func krausSum(m *Matrix, qubits []int, ops []kraus) *Matrix {
	out := &Matrix{n: m.n, d: m.d, rho: make([]complex128, len(m.rho))}
	// off[l] holds local index l's bits at the operand positions, so the
	// global index with row r's other bits and local index l is
	// r&^mask | off[l].
	dim := 1 << uint(len(qubits))
	off := make([]int, dim)
	for l := range off {
		for b, q := range qubits {
			off[l] |= (l >> uint(b) & 1) << uint(q)
		}
	}
	mask := off[dim-1]
	local := make([]int, m.d)
	for i := range local {
		for l, o := range off {
			if i&mask == o {
				local[i] = l
			}
		}
	}
	for _, k := range ops {
		for r := 0; r < m.d; r++ {
			for c := 0; c < m.d; c++ {
				lr, lc := local[r], local[c]
				var v complex128
				for i := 0; i < dim; i++ {
					if k[lr][i] == 0 {
						continue
					}
					for j := 0; j < dim; j++ {
						if k[lc][j] != 0 {
							v += k[lr][i] * m.rho[(r&^mask|off[i])*m.d+(c&^mask|off[j])] * conj(k[lc][j])
						}
					}
				}
				out.rho[r*m.d+c] += v
			}
		}
	}
	return out
}

func kraus1(u quantum.Matrix2, f float64) kraus {
	s := complex(math.Sqrt(f), 0)
	return kraus{{s * u[0][0], s * u[0][1]}, {s * u[1][0], s * u[1][1]}}
}

// kraus2 is f^½·(a ⊗ b) with a on the first operand qubit.
func kraus2(a, b quantum.Matrix2, f float64) kraus {
	s := complex(math.Sqrt(f), 0)
	k := make(kraus, 4)
	for r := 0; r < 4; r++ {
		k[r] = make([]complex128, 4)
		for c := 0; c < 4; c++ {
			k[r][c] = s * a[r&1][c&1] * b[r>>1][c>>1]
		}
	}
	return k
}

// permutation2 is the two-qubit unitary that maps local basis state l to
// p(l).
func permutation2(p func(l int) int) kraus {
	k := make(kraus, 4)
	for r := range k {
		k[r] = make([]complex128, 4)
	}
	for l := 0; l < 4; l++ {
		k[p(l)][l] = 1
	}
	return k
}

func depolarize1Kraus(p float64) []kraus {
	return []kraus{kraus1(quantum.I, 1-p), kraus1(quantum.X, p/3), kraus1(quantum.Y, p/3), kraus1(quantum.Z, p/3)}
}

func depolarize2Kraus(p float64) []kraus {
	paulis := []quantum.Matrix2{quantum.I, quantum.X, quantum.Y, quantum.Z}
	ops := []kraus{kraus2(quantum.I, quantum.I, 1-p)}
	for i := 1; i < 16; i++ {
		ops = append(ops, kraus2(paulis[i/4], paulis[i%4], p/15))
	}
	return ops
}

func dampKraus(gamma float64) []kraus {
	return []kraus{
		{{1, 0}, {0, complex(math.Sqrt(1-gamma), 0)}},
		{{0, complex(math.Sqrt(gamma), 0)}, {0, 0}},
	}
}

// randomDensity returns a random rank-3 mixed state on n qubits.
func randomDensity(n int, rng *rand.Rand) *Matrix {
	m := New(n)
	m.rho[0] = 0
	var w [3]float64
	var total float64
	for k := range w {
		w[k] = rng.Float64()
		total += w[k]
	}
	psi := make([]complex128, m.d)
	for k := range w {
		var norm float64
		for i := range psi {
			psi[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			norm += real(psi[i])*real(psi[i]) + imag(psi[i])*imag(psi[i])
		}
		f := w[k] / total / norm
		for r := range psi {
			for c := range psi {
				m.rho[r*m.d+c] += complex(f, 0) * psi[r] * conj(psi[c])
			}
		}
	}
	return m
}

func maxDiff(a, b *Matrix) float64 {
	var worst float64
	for i := range a.rho {
		d := a.rho[i] - b.rho[i]
		worst = math.Max(worst, math.Hypot(real(d), imag(d)))
	}
	return worst
}

// checkKernelsAt compares the kernels with the Kraus-sum oracle on a
// fresh random ρ: every single-qubit kernel on qubit a when b == a,
// every two-qubit kernel on the ordered pair (a, b) otherwise.
func checkKernelsAt(t testing.TB, n, a, b int, p float64, rng *rand.Rand) {
	t.Helper()
	type kernelCase struct {
		name   string
		qubits []int
		kernel func(m *Matrix)
		ops    []kraus
	}
	var cases []kernelCase
	if a == b {
		u := quantum.U3(rng.Float64()*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi)
		cases = []kernelCase{
			{"Apply1", []int{a}, func(m *Matrix) { m.Apply1(u, a) }, []kraus{kraus1(u, 1)}},
			{"Depolarize1", []int{a}, func(m *Matrix) { m.Depolarize1(a, p) }, depolarize1Kraus(p)},
			{"AmplitudeDamp", []int{a}, func(m *Matrix) { m.AmplitudeDamp(a, p) }, dampKraus(p)},
		}
	} else {
		cases = []kernelCase{
			{"ApplyCNOT", []int{a, b}, func(m *Matrix) { m.ApplyCNOT(a, b) },
				[]kraus{permutation2(func(l int) int { return l ^ (l&1)<<1 })}},
			{"ApplySWAP", []int{a, b}, func(m *Matrix) { m.ApplySWAP(a, b) },
				[]kraus{permutation2(func(l int) int { return l>>1 | (l&1)<<1 })}},
			{"ApplyCZ", []int{a, b}, func(m *Matrix) { m.ApplyCZ(a, b) },
				[]kraus{{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, -1}}}},
			{"Depolarize2", []int{a, b}, func(m *Matrix) { m.Depolarize2(a, b, p) }, depolarize2Kraus(p)},
		}
	}
	for _, tc := range cases {
		rho := randomDensity(n, rng)
		want := krausSum(rho, tc.qubits, tc.ops)
		tc.kernel(rho)
		if diff := maxDiff(rho, want); diff > 1e-12 {
			t.Errorf("%s on %v of %d qubits, p=%v: max |kernel − Kraus sum| = %g", tc.name, tc.qubits, n, p, diff)
		}
	}
}

func TestKernelsMatchKrausSums(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{5, 8} {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				checkKernelsAt(t, n, a, b, rng.Float64(), rng)
			}
		}
	}
}

func FuzzKernelsMatchKraus(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), 0.1)
	f.Add(int64(2), uint8(3), uint8(0), 0.75)
	f.Add(int64(3), uint8(2), uint8(2), 1.0)
	f.Fuzz(func(t *testing.T, seed int64, a, b uint8, p float64) {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Skip()
		}
		const n = 4
		checkKernelsAt(t, n, int(a)%n, int(b)%n, math.Abs(math.Mod(p, 1)), rand.New(rand.NewSource(seed)))
	})
}
