package backend

import (
	"reflect"
	"testing"

	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
)

// TestCompactActiveSet: the compacted register holds exactly the qubits
// the plan's steps touch, in ascending device order, with gate operands
// renumbered onto it; a plan touching every qubit is returned as is, and
// a plan with no steps keeps one qubit.
func TestCompactActiveSet(t *testing.T) {
	mel := device.IBMQMelbourne()
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
		opt  Options
		want []int
	}{
		{"gate operands", circuit.New(14, "c").H(9).CX(9, 10).X(3), Options{}, []int{3, 9, 10}},
		{"noiseless", circuit.New(14, "c").CX(1, 0), Options{NoGateNoise: true, NoDecay: true}, []int{0, 1}},
		{"no steps", circuit.New(14, "empty"), Options{}, []int{0}},
	} {
		p, err := placeNoise(tc.c, mel, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		cp := p.compact()
		if !reflect.DeepEqual(cp.active, tc.want) || cp.c.NumQubits != len(tc.want) || cp.width != 14 {
			t.Errorf("%s: active %v on %d qubits of %d, want %v", tc.name, cp.active, cp.c.NumQubits, cp.width, tc.want)
		}
		for _, s := range cp.steps {
			if s.kind != stepGate {
				continue
			}
			for j, q := range cp.c.Ops[s.op].Qubits {
				if dq := p.c.Ops[s.op].Qubits[j]; cp.active[q] != dq {
					t.Errorf("%s: operand %d of op %d maps to device qubit %d, was %d", tc.name, j, s.op, cp.active[q], dq)
				}
			}
		}
	}

	ghz := circuit.New(5, "ghz5").H(0).CX(1, 0).CX(2, 1).CX(3, 2).CX(3, 4)
	p, err := placeNoise(ghz, device.IBMQX4(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cp := p.compact(); cp != p || cp.active != nil {
		t.Error("a plan touching every qubit was compacted")
	}
}

// TestCompactOutcome: sampled indices scatter onto the active device
// qubits, and a sampler round-off fallthrough becomes the device's
// all-ones string, as a full-width sampler reports it, not the scatter
// of the compacted register's all-ones string.
func TestCompactOutcome(t *testing.T) {
	p := &plan{width: 7, active: []int{2, 5}}
	for _, tc := range []struct {
		i    uint64
		ok   bool
		want string
	}{
		{0, true, "0000000"},
		{1, true, "0000100"},
		{2, true, "0100000"},
		{3, true, "0100100"},
		{3, false, "1111111"},
	} {
		if got := p.outcome(tc.i, tc.ok); got != bitstring.MustParse(tc.want) {
			t.Errorf("outcome(%d, %v) = %s, want %s", tc.i, tc.ok, got, tc.want)
		}
	}
	full := &plan{width: 3}
	if got := full.outcome(5, true); got != bitstring.MustParse("101") {
		t.Errorf("uncompacted outcome(5) = %s, want 101", got)
	}
	if got := full.outcome(2, false); got != bitstring.MustParse("111") {
		t.Errorf("uncompacted fallthrough = %s, want 111", got)
	}
}
