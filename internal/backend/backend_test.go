package backend

import (
	"context"
	"math"
	"testing"

	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/noise"
)

func bs(s string) bitstring.Bits { return bitstring.MustParse(s) }

// noiselessDevice returns a 5-qubit fully-connected device with no error
// processes, for verifying the executor against ideal simulation.
func noiselessDevice() *device.Device {
	d := &device.Device{
		Name:      "ideal-5q",
		NumQubits: 5,
	}
	for i := 0; i < 5; i++ {
		d.Qubits = append(d.Qubits, device.Qubit{T1: 1e12, T2: 1e12})
	}
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			d.Links = append(d.Links, device.Link{A: a, B: b})
		}
	}
	return d
}

func TestRunValidation(t *testing.T) {
	dev := device.IBMQX2()
	c3 := circuit.New(3, "small")
	if _, err := RunContext(context.Background(), c3, dev, Options{Shots: 10}); err == nil {
		t.Error("register mismatch accepted")
	}
	c5 := circuit.New(5, "ok").H(0)
	if _, err := RunContext(context.Background(), c5, dev, Options{Shots: 0}); err == nil {
		t.Error("zero shots accepted")
	}
	uncoupled := circuit.New(5, "bad").CX(0, 4) // 0-4 not coupled on ibmqx2
	if _, err := RunContext(context.Background(), uncoupled, dev, Options{Shots: 10}); err == nil {
		t.Error("uncoupled CNOT accepted")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	dev := device.IBMQX4()
	c := circuit.New(5, "ghz").H(0).CX(0, 1).CX(1, 2).CX(2, 3).CX(3, 4)
	// ibmqx4 links: rewrite onto its coupling (1-0, 2-0, 2-1, 3-2, 3-4, 4-2).
	c = circuit.New(5, "ghz").H(0).CX(1, 0).CX(2, 1).CX(3, 2).CX(3, 4)
	a, err := RunContext(context.Background(), c, dev, Options{Shots: 500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), c, dev, Options{Shots: 500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range a.Outcomes() {
		if a.Get(o) != b.Get(o) {
			t.Fatalf("seeded runs differ at %v: %d vs %d", o, a.Get(o), b.Get(o))
		}
	}
	c2, err := RunContext(context.Background(), c, dev, Options{Shots: 500, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if a.Dist().TVD(c2.Dist()) == 0 {
		t.Error("different seeds produced identical histograms")
	}
}

func TestNoiselessRunMatchesIdeal(t *testing.T) {
	dev := noiselessDevice()
	c := circuit.New(5, "bell-ish").H(0).CX(0, 1).CX(1, 2)
	counts, err := RunContext(context.Background(), c, dev, Options{Shots: 50000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ideal := RunIdeal(c)
	if tvd := counts.Dist().TVD(ideal); tvd > 0.01 {
		t.Errorf("noiseless TVD vs ideal = %v", tvd)
	}
}

func TestRunIdealBasisPrep(t *testing.T) {
	b := bs("10110")
	c := circuit.New(5, "prep").PrepareBasis(b)
	ideal := RunIdeal(c)
	if p := ideal.Prob(b); math.Abs(p-1) > 1e-9 {
		t.Errorf("ideal P(%v) = %v", b, p)
	}
	if len(ideal.Outcomes()) != 1 {
		t.Errorf("ideal has %d outcomes", len(ideal.Outcomes()))
	}
}

func TestReadoutBiasAppearsInRun(t *testing.T) {
	// Preparing |11111⟩ on ibmqx2 must read back correctly less often
	// than |00000⟩ — Fig 1's experiment, end to end.
	dev := device.IBMQX2()
	shots := 20000
	prep0 := circuit.New(5, "prep0")
	prep1 := circuit.New(5, "prep1").PrepareBasis(bs("11111"))

	c0, err := RunContext(context.Background(), prep0, dev, Options{Shots: shots, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := RunContext(context.Background(), prep1, dev, Options{Shots: shots, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pst0 := float64(c0.Get(bs("00000"))) / float64(shots)
	pst1 := float64(c1.Get(bs("11111"))) / float64(shots)
	if pst1 >= pst0 {
		t.Errorf("PST(11111)=%v >= PST(00000)=%v: no state-dependent bias", pst1, pst0)
	}
	if pst0 < 0.85 {
		t.Errorf("PST(00000)=%v unexpectedly low", pst0)
	}
}

func TestAblationNoReadoutError(t *testing.T) {
	dev := device.IBMQX2()
	c := circuit.New(5, "prep").PrepareBasis(bs("11111"))
	shots := 20000
	noisy, err := RunContext(context.Background(), c, dev, Options{Shots: shots, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := RunContext(context.Background(), c, dev, Options{Shots: shots, Seed: 4, NoReadoutError: true})
	if err != nil {
		t.Fatal(err)
	}
	pNoisy := float64(noisy.Get(bs("11111"))) / float64(shots)
	pClean := float64(clean.Get(bs("11111"))) / float64(shots)
	if pClean <= pNoisy {
		t.Errorf("disabling readout error did not help: %v vs %v", pClean, pNoisy)
	}
}

func TestAblationNoGateNoiseNoDecay(t *testing.T) {
	// With all noise disabled the run must match the ideal distribution.
	dev := device.IBMQX4()
	c := circuit.New(5, "ghz").H(0).CX(1, 0).CX(2, 1).CX(3, 2).CX(3, 4)
	counts, err := RunContext(context.Background(), c, dev, Options{
		Shots: 30000, Seed: 5,
		NoGateNoise: true, NoDecay: true, NoReadoutError: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tvd := counts.Dist().TVD(RunIdeal(c)); tvd > 0.012 {
		t.Errorf("all-ablations TVD = %v", tvd)
	}
}

func TestDecayBiasesGHZTowardZeros(t *testing.T) {
	// On a device with only T1 decay (no gate noise, no readout error),
	// the GHZ |11111⟩ branch must decay while |00000⟩ survives — the
	// superposition-bias mechanism of Fig 6.
	dev := noiselessDevice()
	for i := range dev.Qubits {
		dev.Qubits[i].T1 = 3.0 // heavy decay relative to gate durations
	}
	dev.Gate1Duration = 0.06
	dev.Gate2Duration = 0.30
	c := circuit.New(5, "ghz").H(0).CX(0, 1).CX(1, 2).CX(2, 3).CX(3, 4)
	counts, err := RunContext(context.Background(), c, dev, Options{Shots: 30000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	d := counts.Dist()
	p0, p1 := d.Prob(bs("00000")), d.Prob(bs("11111"))
	if p1 >= p0 {
		t.Errorf("decay did not bias GHZ: P(00000)=%v P(11111)=%v", p0, p1)
	}
	if p0 < 0.45 {
		t.Errorf("P(00000)=%v, want ≈ 0.5 plus decayed mass", p0)
	}
}

func TestGateNoiseDegradesDeepCircuits(t *testing.T) {
	dev := device.IBMQMelbourne()
	// A long chain of CNOTs along row one.
	c := circuit.New(14, "deep")
	for rep := 0; rep < 4; rep++ {
		for q := 0; q < 6; q++ {
			c.CX(q, q+1)
			c.CX(q, q+1) // pairs cancel: ideal output stays |0…0⟩
		}
	}
	shots := 4000
	noisy, err := RunContext(context.Background(), c, dev, Options{Shots: shots, Seed: 7, NoReadoutError: true, NoDecay: true})
	if err != nil {
		t.Fatal(err)
	}
	pst := float64(noisy.Get(bitstring.Zeros(14))) / float64(shots)
	if pst > 0.75 {
		t.Errorf("48 noisy CNOTs left PST=%v, expected visible gate-error degradation", pst)
	}
	if pst < 0.05 {
		t.Errorf("PST=%v collapsed entirely; gate noise too strong", pst)
	}
}

func TestShotsPerTrajectoryConvergence(t *testing.T) {
	// Reusing trajectories must converge to the same distribution as
	// independent trajectories.
	dev := device.IBMQX2()
	c := circuit.New(5, "h-all")
	for q := 0; q < 5; q++ {
		c.H(q)
	}
	one, err := RunContext(context.Background(), c, dev, Options{Shots: 40000, Seed: 8, ShotsPerTrajectory: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunContext(context.Background(), c, dev, Options{Shots: 40000, Seed: 9, ShotsPerTrajectory: 50})
	if err != nil {
		t.Fatal(err)
	}
	if tvd := one.Dist().TVD(many.Dist()); tvd > 0.03 {
		t.Errorf("trajectory reuse TVD = %v", tvd)
	}
}

func TestRunAgreesWithExactReadoutModel(t *testing.T) {
	// For a basis-state preparation with gate noise and decay disabled,
	// the run distribution must equal the readout channel's exact row.
	dev := device.IBMQX4()
	x := bs("01101")
	c := circuit.New(5, "prep").PrepareBasis(x)
	counts, err := RunContext(context.Background(), c, dev, Options{Shots: 60000, Seed: 10, NoGateNoise: true, NoDecay: true})
	if err != nil {
		t.Fatal(err)
	}
	model := dev.ReadoutModel()
	d := counts.Dist()
	for _, y := range bitstring.All(5) {
		want := model.TransitionProb(x, y)
		if math.Abs(d.Prob(y)-want) > 0.01 {
			t.Errorf("P(%v|%v) = %v, exact %v", y, x, d.Prob(y), want)
		}
	}
}

func TestRunWithCorrelatedReadout(t *testing.T) {
	dev := noiselessDevice()
	for i := range dev.Qubits {
		dev.Qubits[i].Readout = noise.ReadoutError{P01: 0.01, P10: 0.02}
	}
	dev.Correlations = []noise.CorrelatedFlip{
		{Trigger: 0, TriggerState: true, Target: 1, PExtra: 0.5},
	}
	c := circuit.New(5, "prep").PrepareBasis(bs("00001"))
	counts, err := RunContext(context.Background(), c, dev, Options{Shots: 40000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	d := counts.Dist()
	// Qubit 1 should flip about half the time because qubit 0 is 1.
	pFlip := d.Prob(bs("00011")) + d.Prob(bs("00010"))
	if math.Abs(pFlip-0.5) > 0.05 {
		t.Errorf("correlated flip probability = %v, want ≈ 0.5", pFlip)
	}
}

func TestParallelWorkersDeterministic(t *testing.T) {
	dev := device.IBMQX4()
	c := circuit.New(5, "ghz").H(0).CX(1, 0).CX(2, 1).CX(3, 2).CX(3, 4)
	// Pinned to trajectories: the exact engine ignores Workers.
	opt := Options{Shots: 4000, Seed: 91, Workers: 4, ShotsPerTrajectory: 1}
	a, err := RunContext(context.Background(), c, dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), c, dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range a.Outcomes() {
		if a.Get(o) != b.Get(o) {
			t.Fatalf("parallel runs differ at %v", o)
		}
	}
	if a.Total() != 4000 {
		t.Errorf("total = %d", a.Total())
	}
}

func TestParallelConvergesToSequential(t *testing.T) {
	dev := device.IBMQX2()
	c := circuit.New(5, "h-all")
	for q := 0; q < 5; q++ {
		c.H(q)
	}
	// Pinned to trajectories: the exact engine ignores Workers.
	seq, err := RunContext(context.Background(), c, dev, Options{Shots: 40000, Seed: 92, ShotsPerTrajectory: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunContext(context.Background(), c, dev, Options{Shots: 40000, Seed: 92, Workers: 8, ShotsPerTrajectory: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tvd := seq.Dist().TVD(par.Dist()); tvd > 0.03 {
		t.Errorf("parallel vs sequential TVD = %v", tvd)
	}
}

func TestParallelMoreWorkersThanShots(t *testing.T) {
	dev := device.IBMQX2()
	c := circuit.New(5, "h").H(0)
	counts, err := RunContext(context.Background(), c, dev, Options{Shots: 3, Seed: 93, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if counts.Total() != 3 {
		t.Errorf("total = %d", counts.Total())
	}
}
