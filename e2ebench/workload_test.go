package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func marshalWorkload(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := Generate(name, seed, 20)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, name := range workloadNames {
		a, b := marshalWorkload(t, name, 7), marshalWorkload(t, name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if c := marshalWorkload(t, name, 8); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
}

// Every workload seed runs the same multiset of requests; only the
// order differs.
func TestSeedsPermuteOneMultiset(t *testing.T) {
	for _, name := range workloadNames {
		count := func(seed int64) map[string]int {
			w, err := Generate(name, seed, 20)
			if err != nil {
				t.Fatal(err)
			}
			out := map[string]int{}
			for _, ops := range w.Timed {
				for _, op := range ops {
					if op.Mitigate != nil {
						out[op.Kind+" "+reqKey(op.Mitigate)]++
					}
				}
			}
			return out
		}
		a, b := count(1), count(2)
		if len(a) != len(b) {
			t.Fatalf("%s: %d distinct requests at seed 1, %d at seed 2", name, len(a), len(b))
		}
		for k, n := range a {
			if b[k] != n {
				t.Errorf("%s: %s appears %d times at seed 1, %d at seed 2", name, k, n, b[k])
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Generate("nope", 1, 20); err == nil {
		t.Fatal("want an error for an unknown workload")
	}
}

// Timed fresh-seed requests must never be result-cache hits: no warm-up
// request shares their seed, and on the sync workloads no two timed
// requests share a key.
func TestTimedSeedsDisjointFromWarmup(t *testing.T) {
	for _, name := range workloadNames {
		w, err := Generate(name, 3, 20)
		if err != nil {
			t.Fatal(err)
		}
		warm := map[int64]bool{}
		for _, ops := range w.Warmup {
			for _, op := range ops {
				if op.Mitigate != nil {
					if op.Mitigate.Seed <= seedSplit {
						t.Errorf("%s: warm-up seed %d inside the timed range", name, op.Mitigate.Seed)
					}
					warm[op.Mitigate.Seed] = true
				}
			}
		}
		keys := map[string]bool{}
		for _, ops := range w.Timed {
			for _, op := range ops {
				if op.Mitigate == nil || warm[op.Mitigate.Seed] {
					continue // a hot-set request, primed on purpose
				}
				if op.Mitigate.Seed > seedSplit {
					t.Errorf("%s: fresh seed %d outside the timed range", name, op.Mitigate.Seed)
				}
				if k := reqKey(op.Mitigate); keys[k] {
					t.Errorf("%s: fresh request %s repeats", name, k)
				} else {
					keys[k] = true
				}
			}
		}
	}
}

// Every workload has enough mitigates at its minimum length for a p50
// with ten samples beyond it, and tenant-mix's rounds split both
// streams evenly.
func TestWorkloadSizes(t *testing.T) {
	for _, name := range workloadNames {
		w, err := Generate(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		mitigates := 0
		for _, op := range w.Timed[0] {
			if op.Kind == opMitigate {
				mitigates++
			}
		}
		if mitigates < 20 {
			t.Errorf("%s: %d timed mitigates at the minimum length, want at least 20", name, mitigates)
		}
		if w.RoundLen != nil {
			for i, ops := range w.Timed {
				if len(ops)%w.RoundLen[i] != 0 {
					t.Errorf("%s: stream %d has %d ops, not a multiple of its round of %d", name, i, len(ops), w.RoundLen[i])
				}
			}
		}
	}
}
