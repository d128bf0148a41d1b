package quantum

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzSamplerMatchesLinearScan is the satellite guarantee of the fast
// sampling path: for arbitrary states (normalized or deliberately
// sub-normalized, so uniform draws can land at or past the total mass)
// and arbitrary rng streams, the CDF binary-search sampler returns the
// same outcome as State.Sample, draw for draw. The sampler is Reset
// first on a wider state and then on the drawn one, as the backend's
// trial loop reuses one Sampler across runs of different widths, so a
// stale tail of the wider CDF would show; each input still builds its
// own Sampler, so a crasher reproduces alone.
func FuzzSamplerMatchesLinearScan(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(4), uint8(0))
	f.Add(int64(7), int64(9), uint8(1), uint8(1))
	f.Add(int64(42), int64(3), uint8(8), uint8(3))
	f.Add(int64(-5), int64(0), uint8(12), uint8(2))
	f.Fuzz(func(t *testing.T, stateSeed, drawSeed int64, widthRaw, massRaw uint8) {
		n := int(widthRaw%10) + 1 // 1..10 qubits
		// massRaw selects the total probability mass: 1 (physical), or a
		// sub-normalized state whose tail a uniform draw can overrun.
		mass := 1.0
		switch massRaw % 4 {
		case 1:
			mass = 0.5
		case 2:
			mass = 0.05
		case 3:
			mass = 0.999999
		}
		rng := rand.New(rand.NewSource(stateSeed))
		s := randomMassState(n, rng, mass)
		// Occasionally zero out a run of amplitudes so the prefix array
		// has plateaus (repeated values) around the chosen u.
		if massRaw%2 == 1 {
			for i := len(s.amps) / 4; i < len(s.amps)/2; i++ {
				s.amps[i] = 0
			}
		}
		var sp Sampler
		sp.Reset(randomMassState(n+1, rng, 1))
		sp.Reset(s)
		rngA := rand.New(rand.NewSource(drawSeed))
		rngB := rand.New(rand.NewSource(drawSeed))
		for i := 0; i < 32; i++ {
			want := s.Sample(rngA)
			got := sp.Sample(rngB)
			if want != got {
				t.Fatalf("draw %d (n=%d mass=%v): linear scan %s, CDF %s", i, n, mass, want, got)
			}
		}
		// The tail contract in isolation: u at or past the accumulated
		// mass returns the last basis state from both samplers.
		total := sp.prefix[len(sp.prefix)-1]
		if u := math.Nextafter(total, 2); u < 1 {
			last := len(s.amps) - 1
			if got := sp.sampleU(u); int(got.Uint64()) != last {
				t.Fatalf("u just past total mass: CDF returned %s, want index %d", got, last)
			}
		}
	})
}
