package noise

import (
	"math/rand"
	"testing"

	"biasmit/internal/bitstring"
)

// correlatedTestModel builds a model with asymmetric per-qubit errors
// and stacked correlations, including two on the same target (whose
// fold order is observable in the effective flip probability stream).
func correlatedTestModel() *ReadoutModel {
	return &ReadoutModel{
		PerQubit: []ReadoutError{
			{P01: 0.01, P10: 0.08},
			{P01: 0.02, P10: 0.12},
			{P01: 0.00, P10: 0.30},
			{P01: 0.03, P10: 0.05},
			{P01: 0.015, P10: 0.9},
		},
		Correlations: []CorrelatedFlip{
			{Trigger: 0, TriggerState: true, Target: 2, PExtra: 0.2},
			{Trigger: 3, TriggerState: false, Target: 2, PExtra: 0.15},
			{Trigger: 1, TriggerState: true, Target: 4, PExtra: 0.05},
			{Trigger: 2, TriggerState: false, Target: 0, PExtra: 0.07},
		},
	}
}

// TestCompiledApplyStreamIdentical drives the naive and compiled
// channels over one shared rng stream each and asserts byte-identical
// corrupted outcomes across every true state, shot after shot — the
// stream-identity contract the backend fast path rests on.
func TestCompiledApplyStreamIdentical(t *testing.T) {
	m := correlatedTestModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	c := m.Compile()
	rngA := rand.New(rand.NewSource(99))
	rngB := rand.New(rand.NewSource(99))
	for _, x := range bitstring.All(5) {
		for shot := 0; shot < 200; shot++ {
			want := m.Apply(x, rngA)
			got := c.Apply(x, rngB)
			if want != got {
				t.Fatalf("x=%s shot %d: naive %s, compiled %s", x, shot, want, got)
			}
		}
	}
}

func TestCompiledApplyNoCorrelations(t *testing.T) {
	m := &ReadoutModel{PerQubit: correlatedTestModel().PerQubit}
	c := m.Compile()
	rngA := rand.New(rand.NewSource(3))
	rngB := rand.New(rand.NewSource(3))
	for _, x := range bitstring.All(5) {
		for shot := 0; shot < 100; shot++ {
			if want, got := m.Apply(x, rngA), c.Apply(x, rngB); want != got {
				t.Fatalf("x=%s shot %d: naive %s, compiled %s", x, shot, want, got)
			}
		}
	}
}

// TestCompiledApplyAllocs pins the whole point of compiling: zero
// allocations per shot (the naive path allocates a flip-probability
// slice every call).
func TestCompiledApplyAllocs(t *testing.T) {
	c := correlatedTestModel().Compile()
	rng := rand.New(rand.NewSource(1))
	x := bitstring.MustParse("10110")
	if allocs := testing.AllocsPerRun(200, func() {
		_ = c.Apply(x, rng)
	}); allocs != 0 {
		t.Fatalf("CompiledReadout.Apply allocates %v per shot, want 0", allocs)
	}
}

func TestCompiledModelRoundTrip(t *testing.T) {
	m := correlatedTestModel()
	c := m.Compile()
	if c.Model() != m {
		t.Fatal("Model() does not return the source model")
	}
	if c.NumQubits() != m.NumQubits() {
		t.Fatalf("NumQubits %d != %d", c.NumQubits(), m.NumQubits())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("width mismatch did not panic")
		}
	}()
	c.Apply(bitstring.MustParse("101"), rand.New(rand.NewSource(1)))
}

// TestFlipTableStreamIdentical: drawing against a true outcome's row of
// the flip table, one Float64 per positive entry, corrupts it exactly as
// Apply does on the same rng stream, for every true state, with stacked
// correlations on one target and a qubit that never misreads 0.
func TestFlipTableStreamIdentical(t *testing.T) {
	for _, m := range []*ReadoutModel{correlatedTestModel(), {PerQubit: correlatedTestModel().PerQubit}} {
		c := m.Compile()
		n := c.NumQubits()
		table := c.FlipTable(nil)
		if len(table) != n<<uint(n) {
			t.Fatalf("table holds %d entries, want %d", len(table), n<<uint(n))
		}
		rngA := rand.New(rand.NewSource(99))
		rngB := rand.New(rand.NewSource(99))
		for _, x := range bitstring.All(n) {
			row := table[int(x.Uint64())*n:][:n]
			for shot := 0; shot < 200; shot++ {
				want := c.Apply(x, rngA)
				got := x.Uint64()
				for q, p := range row {
					if p > 0 && rngB.Float64() < p {
						got ^= 1 << uint(q)
					}
				}
				if got != want.Uint64() {
					t.Fatalf("x=%s shot %d: Apply %s, table %s", x, shot, want, bitstring.New(got, n))
				}
			}
		}
	}
}
