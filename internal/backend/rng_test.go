package backend

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sourceSeeds are the edge seeds the generator must follow math/rand at:
// both ends of int64, both sides of 2^31, and seeds ≡ 0 mod 2^31−1 (0,
// 2^31−1 and a negative multiple), which math/rand's seeding replaces
// with 89482311.
var sourceSeeds = []int64{0, 1, -1, 1<<31 - 1, 1 << 31, math.MinInt64, math.MaxInt64, -3 * (1<<31 - 1), 89482311}

func newSource(seed int64) *lfSource {
	s := new(lfSource)
	s.Seed(seed)
	return s
}

// TestSourceMatchesMathRand: through rand.New, the copied generator
// gives what rand.NewSource gives, draw for draw, for 10^4 draws of each
// method the backend and its callers use, at every edge seed; and the
// Float64 the exact engine calls directly draws what
// (*rand.Rand).Float64 draws.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 10000
	for _, seed := range sourceSeeds {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newSource(seed))
		wantF, direct := rand.New(rand.NewSource(seed)), newSource(seed)
		for i := 0; i < draws; i++ {
			if w, g := wantF.Float64(), direct.Float64(); w != g {
				t.Fatalf("seed %d: direct Float64 draw %d = %v, want %v", seed, i, g, w)
			}
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, i, g, w)
			}
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, i, g, w)
			}
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, i, g, w)
			}
			// Powers of two mask, other bounds reject, and bounds past
			// 2^31 take Int63n.
			for _, n := range []int{3, 15, 1 << 10, 1<<31 - 1, 1<<40 + 7} {
				if w, g := want.Intn(n), got.Intn(n); w != g {
					t.Fatalf("seed %d: Intn(%d) draw %d = %d, want %d", seed, n, i, g, w)
				}
			}
		}
		for i := 0; i < draws/100; i++ {
			w, g := want.Perm(100), got.Perm(100)
			for k := range w {
				if w[k] != g[k] {
					t.Fatalf("seed %d: Perm draw %d differs at %d", seed, i, k)
				}
			}
		}
	}
}

// seedrand is math/rand's seeding step, Schrage's method for
// 48271·x mod (2^31−1) in 32-bit arithmetic.
func seedrand(x int32) int32 {
	const (
		A = 48271
		Q = 44488
		R = 3399
	)
	hi := x / Q
	lo := x % Q
	x = A*lo - R*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// TestLehmerMatchesSeedrand: the Mersenne-fold step equals math/rand's
// division-based one at both ends of its domain, where the fold sums
// its largest terms, and across it in a prime stride.
func TestLehmerMatchesSeedrand(t *testing.T) {
	check := func(x int32) {
		if got, want := lehmer(uint64(x)), seedrand(x); got != uint64(want) {
			t.Fatalf("lehmer(%d) = %d, seedrand %d", x, got, want)
		}
	}
	for x := int32(1); x < 1<<16; x++ {
		check(x)
		check(int32max - x)
	}
	for x := int64(1); x < int32max; x += 104729 {
		check(int32(x))
	}
}

// TestScratchReseedsAfterPanic: a run that panics mid-stream hands its
// half-used scratch back to the free list; the next run that takes it draws
// rand.NewSource's stream for its own seed, from the first draw.
func TestScratchReseedsAfterPanic(t *testing.T) {
	sc := acquireScratch(7)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		defer releaseScratch(sc)
		for i := 0; i < 1000; i++ {
			sc.rng.Float64()
		}
		panic("mid-run")
	}()
	for _, seed := range sourceSeeds {
		// The free list may hand back this scratch or another one; seed the
		// half-used one directly as well.
		for _, got := range []*runScratch{acquireScratch(seed), sc} {
			got.rng.Seed(seed)
			want := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				if w, g := want.Uint64(), got.src.Uint64(); w != g {
					t.Fatalf("seed %d: draw %d = %d, want %d", seed, i, g, w)
				}
			}
		}
	}
}

// FuzzSourceMatchesMathRand: at any seed, the copied generator's first
// 1024 draws equal rand.NewSource's.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range sourceSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		want := rand.NewSource(seed).(rand.Source64)
		got := newSource(seed)
		for i := 0; i < 1024; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: draw %d = %d, want %d", seed, i, g, w)
			}
		}
	})
}

// TestCDFSearchMatchesSortSearch: the guide-table search returns
// sort.Search's index, clamped to the last entry, on diagonals with
// exact zeros, round-off negatives, one point mass at either end, a
// zero trace and non-finite entries, for draws at and beside every CDF
// entry and for uniform draws.
func TestCDFSearchMatchesSortSearch(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	diags := map[string][]float64{
		"uniform":     {0.25, 0.25, 0.25, 0.25},
		"zeros":       {0, 0.5, 0, 0, 0, 0, 0.5, 0},
		"negative":    {0.3, -1e-17, 0.2, 0.5, -1e-18, 0, 0, 0},
		"first only":  {1, 0, 0, 0, 0, 0, 0, 0},
		"last only":   {0, 0, 0, 0, 0, 0, 0, 1},
		"tiny tail":   {1 - 1e-12, 1e-13, 1e-13, 1e-13, 1e-13, 1e-13, 1e-13, 1e-13},
		"zero trace":  {0, 0, 0, 0},
		"infinite":    {0.1, inf, 0.2, 0},
		"nan":         {0.1, nan, 0.2, 0.3},
		"single":      {0.7},
		"off by ulps": {0.1, 0.2, 0.3, 0.4 + 1e-15},
	}
	rng := rand.New(rand.NewSource(1))
	for name, diag := range diags {
		cdf := append([]float64(nil), diag...)
		s := newCDFSearch(cdf, nil)
		want := func(u float64) int {
			i := sort.Search(len(cdf), func(j int) bool { return u < cdf[j] })
			if i == len(cdf) {
				i--
			}
			return i
		}
		var us []float64
		for _, c := range cdf {
			us = append(us, c, math.Nextafter(c, -1), math.Nextafter(c, 2))
		}
		for i := 0; i < 10000; i++ {
			us = append(us, rng.Float64()*s.total)
		}
		us = append(us, 0, s.total, nan, inf)
		for _, u := range us {
			if got, w := s.index(u), want(u); got != w {
				t.Fatalf("%s: index(%v) = %d, sort.Search %d", name, u, got, w)
			}
		}
	}
}
