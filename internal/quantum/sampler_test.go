package quantum

import (
	"math"
	"math/rand"
	"testing"

	"biasmit/internal/bitstring"
)

// randomState fills an n-qubit state with amplitudes drawn from rng and
// scales it so its total probability mass is exactly mass (1 for a
// physical state; below 1 to exercise the round-off tail where a uniform
// draw can land at or beyond the accumulated total).
func randomMassState(n int, rng *rand.Rand, mass float64) *State {
	s := NewState(n)
	for i := range s.amps {
		s.amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	norm := math.Sqrt(s.Norm())
	f := complex(math.Sqrt(mass)/norm, 0)
	for i := range s.amps {
		s.amps[i] *= f
	}
	return s
}

// drawPair runs the linear-scan and CDF samplers over the same rng
// stream and fails on the first divergence.
func drawPair(t *testing.T, s *State, sp *Sampler, seed int64, draws int) {
	t.Helper()
	rngA := rand.New(rand.NewSource(seed))
	rngB := rand.New(rand.NewSource(seed))
	for i := 0; i < draws; i++ {
		want := s.Sample(rngA)
		got := sp.Sample(rngB)
		if want != got {
			t.Fatalf("draw %d: linear scan %s, CDF sampler %s", i, want, got)
		}
	}
}

func TestSamplerMatchesLinearScan(t *testing.T) {
	for _, n := range []int{1, 2, 4, 6, 9} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed * 100))
			s := randomMassState(n, rng, 1)
			drawPair(t, s, NewSampler(s), seed, 200)
		}
	}
}

// TestSamplerRoundOffTail forces draws past the total mass: with mass
// well below 1 most uniforms land beyond the final prefix entry, where
// both samplers must return the last basis state.
func TestSamplerRoundOffTail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomMassState(3, rng, 0.25)
	sp := NewSampler(s)
	drawPair(t, s, sp, 11, 200)

	// Directly past the mass: u = 0.9 ≥ 0.25 must hit the last state.
	last := bitstring.New(uint64(len(s.amps)-1), 3)
	if got := sp.sampleU(0.9); got != last {
		t.Fatalf("u beyond total mass: got %s, want %s", got, last)
	}
	// u exactly equal to the final prefix entry is NOT strictly below it,
	// so it also falls through to the last state.
	if got := sp.sampleU(sp.prefix[len(sp.prefix)-1]); got != last {
		t.Fatalf("u == total mass: got %s, want %s", got, last)
	}
}

// TestSampleIndexReportsRoundOff: both index samplers flag a draw past
// the total mass (ok false, last index) and only such a draw, so a
// caller sampling a sub-register can tell the fallthrough apart from a
// genuine draw of the last basis state.
func TestSampleIndexReportsRoundOff(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomMassState(3, rng, 0.25)
	sp := NewSampler(s)
	last := uint64(len(s.amps) - 1)
	for _, tc := range []struct {
		u      float64
		wantOK bool
	}{
		{0, true},
		{sp.prefix[len(sp.prefix)-1], false}, // u == total mass is not strictly below it
		{0.9, false},
	} {
		for name, sample := range map[string]func(*rand.Rand) (uint64, bool){
			"State":   s.SampleIndex,
			"Sampler": sp.SampleIndex,
		} {
			i, ok := sample(rand.New(&fixedUniform{u: tc.u}))
			if ok != tc.wantOK || (!ok && i != last) {
				t.Errorf("%s.SampleIndex at u=%v: (%d, %v), want ok %v (last index %d on fallthrough)",
					name, tc.u, i, ok, tc.wantOK, last)
			}
		}
	}
}

func TestSamplerZeroAmplitudeRuns(t *testing.T) {
	// A state with long runs of zero amplitude produces repeated prefix
	// values; the strict `u < prefix[i]` rule must skip them exactly as
	// the linear scan does.
	s := NewState(4)
	s.amps[0] = 0
	s.amps[3] = complex(math.Sqrt(0.5), 0)
	s.amps[12] = complex(0, math.Sqrt(0.5))
	sp := NewSampler(s)
	drawPair(t, s, sp, 3, 500)
	if got := sp.sampleU(0); got != bitstring.New(3, 4) {
		t.Fatalf("u=0 through a zero run: got %s, want 0011", got)
	}
}

func TestSamplerResetReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomMassState(5, rng, 1)
	sp := NewSampler(s)
	buf := &sp.prefix[0]
	s2 := randomMassState(5, rng, 1)
	sp.Reset(s2)
	if &sp.prefix[0] != buf {
		t.Fatal("Reset at equal width reallocated the prefix buffer")
	}
	drawPair(t, s2, sp, 9, 100)
}

func TestProbabilitiesInto(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := randomMassState(4, rng, 1)
	want := s.Probabilities()
	dst := make([]float64, len(want))
	s.ProbabilitiesInto(dst)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("index %d: ProbabilitiesInto %v, Probabilities %v", i, dst[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short dst did not panic")
		}
	}()
	s.ProbabilitiesInto(make([]float64, 3))
}

func TestAcquireReleaseState(t *testing.T) {
	s := AcquireState(3)
	if s.NumQubits() != 3 || s.amps[0] != 1 {
		t.Fatal("acquired state is not the ground state")
	}
	s.Apply1(H, 0)
	ReleaseState(s)
	s2 := AcquireState(3)
	if s2.amps[0] != 1 || s2.Norm() != 1 {
		t.Fatal("recycled state was not reset to ground")
	}
	for i := 1; i < len(s2.amps); i++ {
		if s2.amps[i] != 0 {
			t.Fatalf("recycled state has residual amplitude at %d", i)
		}
	}
	ReleaseState(s2)
}

// sampleU is a test hook: sample with an explicit uniform value instead
// of drawing from an rng.
func (sp *Sampler) sampleU(u float64) bitstring.Bits {
	rng := rand.New(&fixedUniform{u: u})
	return sp.Sample(rng)
}

// fixedUniform is a rand.Source whose Float64 resolves to a chosen u.
// rand.Rand.Float64 computes float64(Int63()) / (1<<63), so feeding
// u*(1<<63) reproduces u bit-exactly whenever u*(1<<63) is an integer
// representable in a float64 — true for any u produced by float64
// arithmetic on values ≥ 2^-10, which covers the prefix sums fed here.
type fixedUniform struct{ u float64 }

func (f *fixedUniform) Int63() int64 {
	return int64(f.u * (1 << 63))
}
func (f *fixedUniform) Seed(int64) {}
