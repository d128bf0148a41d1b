package dist

import (
	"math"
	"testing"

	"biasmit/internal/bitstring"
)

// SIM and AIM merge per-group logs where some groups may be empty and
// group totals are unequal (AIM's canary and adaptive groups split the
// budget unevenly). These tests pin the merge/normalize semantics those
// merges depend on.

func TestMergeEmptyCounts(t *testing.T) {
	b01 := bitstring.MustParse("01")
	c := NewCounts(2)
	c.Add(b01, 5)

	// Merging an empty histogram is a no-op.
	c.Merge(NewCounts(2))
	if c.Total() != 5 || c.Get(b01) != 5 {
		t.Fatalf("merge of empty changed counts: total=%d", c.Total())
	}

	// Merging into an empty histogram copies everything.
	dst := NewCounts(2)
	dst.Merge(c)
	if dst.Total() != 5 || dst.Get(b01) != 5 {
		t.Fatalf("merge into empty: total=%d get=%d", dst.Total(), dst.Get(b01))
	}

	// The zero value is a usable merge target too.
	var zero Counts
	zeroSrc := NewCounts(0)
	zero.Merge(zeroSrc)
	if zero.Total() != 0 {
		t.Fatalf("zero-value merge total = %d", zero.Total())
	}
}

func TestMergeAccumulatesRepeatedOutcomes(t *testing.T) {
	b := bitstring.MustParse("11")
	acc := NewCounts(2)
	for i := 0; i < 3; i++ {
		part := NewCounts(2)
		part.Add(b, 7)
		acc.Merge(part)
	}
	if acc.Get(b) != 21 || acc.Total() != 21 {
		t.Fatalf("accumulated %d/%d, want 21/21", acc.Get(b), acc.Total())
	}
}

func TestEmptyCountsDistAndNormalize(t *testing.T) {
	empty := NewCounts(3)
	d := empty.Dist()
	if len(d.P) != 0 || d.Mass() != 0 {
		t.Fatalf("empty counts produced mass %v", d.Mass())
	}
	// Normalizing a zero-mass distribution must not divide by zero.
	n := d.Normalize()
	if n.Mass() != 0 || len(n.P) != 0 {
		t.Fatalf("normalized zero-mass dist has mass %v", n.Mass())
	}
}

func TestNormalizeRescalesToUnitMass(t *testing.T) {
	d := NewDist(1)
	d.P[bitstring.MustParse("0")] = 0.2
	d.P[bitstring.MustParse("1")] = 0.6
	n := d.Normalize()
	if math.Abs(n.Mass()-1) > 1e-12 {
		t.Fatalf("normalized mass %v", n.Mass())
	}
	if math.Abs(n.Prob(bitstring.MustParse("1"))-0.75) > 1e-12 {
		t.Fatalf("P(1) = %v, want 0.75", n.Prob(bitstring.MustParse("1")))
	}
	// The input is untouched.
	if d.Mass() != 0.8 {
		t.Fatalf("Normalize mutated its receiver: mass %v", d.Mass())
	}
}

func TestMixIgnoresZeroTrialGroups(t *testing.T) {
	b0 := bitstring.MustParse("0")
	b1 := bitstring.MustParse("1")
	loaded := NewDist(1)
	loaded.P[b0] = 1
	empty := NewDist(1) // a group whose every trial was lost

	// Weight 0 silences a group even if it carries mass; an empty group
	// with positive weight contributes nothing but still dilutes — SIM
	// weights groups by trial count, so a zero-trial group gets weight 0
	// and must drop out entirely.
	out := Mix([]Dist{loaded, empty}, []float64{40, 0})
	if math.Abs(out.Prob(b0)-1) > 1e-12 || out.Prob(b1) != 0 {
		t.Fatalf("zero-weight group leaked into the mix: %v", out.P)
	}

	// All-zero weights yield the empty distribution, not NaNs.
	out = Mix([]Dist{loaded, empty}, []float64{0, 0})
	if len(out.P) != 0 || out.Mass() != 0 {
		t.Fatalf("all-zero-weight mix has mass %v", out.Mass())
	}
}

func TestMixReweightsUnequalShotCounts(t *testing.T) {
	// Two measurement groups with unequal surviving shot counts: 300
	// trials all-|0⟩ and 100 trials all-|1⟩. Mixing their normalized
	// distributions weighted by trial count must equal the distribution
	// of the merged raw logs — the identity that lets unequal groups be
	// merged as raw counts.
	b0 := bitstring.MustParse("0")
	b1 := bitstring.MustParse("1")
	g1 := NewCounts(1)
	g1.Add(b0, 300)
	g2 := NewCounts(1)
	g2.Add(b1, 100)

	mixed := Mix(
		[]Dist{g1.Dist(), g2.Dist()},
		[]float64{float64(g1.Total()), float64(g2.Total())},
	)

	merged := NewCounts(1)
	merged.Merge(g1)
	merged.Merge(g2)
	want := merged.Dist()

	for _, b := range []bitstring.Bits{b0, b1} {
		if math.Abs(mixed.Prob(b)-want.Prob(b)) > 1e-12 {
			t.Fatalf("P(%v): mixed %v, merged %v", b, mixed.Prob(b), want.Prob(b))
		}
	}
	if math.Abs(mixed.Prob(b0)-0.75) > 1e-12 {
		t.Fatalf("P(0) = %v, want 0.75", mixed.Prob(b0))
	}
}
