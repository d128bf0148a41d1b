package experiments

import (
	"reflect"
	"sync"
	"testing"

	"biasmit/internal/quantum"
)

// TestBenchmarkByNameMemoized: every suite benchmark resolves to the
// instance a fresh build produces, each call hands out its own circuit
// and correct outputs, and altering one copy leaves the next untouched.
func TestBenchmarkByNameMemoized(t *testing.T) {
	for name := range suiteBenchmarks {
		fresh, err := buildBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, fresh) {
			t.Fatalf("%s: memoized benchmark differs from a fresh build", name)
		}
		a.Circuit.Ops[0].Qubits[0] = -1
		a.Circuit.Ops[0].Matrix = quantum.Matrix2{}
		a.Circuit.X(0)
		a.Correct[0] = a.Correct[0].Invert()
		b, err := BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b, fresh) {
			t.Fatalf("%s: a caller's edit reached the memoized benchmark", name)
		}
	}
	if len(suiteBenchmarks) != 8 {
		t.Errorf("%d memoized suite benchmarks, want 8", len(suiteBenchmarks))
	}
	if _, err := BenchmarkByName("ghz-14"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestBenchmarkByNameConcurrent: callers that resolve and edit the suite
// benchmarks at once, as the daemon's handlers and RunSuite's workers
// do, share one build each and never touch each other's copies (run
// under -race).
func TestBenchmarkByNameConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range suiteBenchmarks {
				b, err := BenchmarkByName(name)
				if err != nil {
					t.Error(err)
					return
				}
				b.Circuit.Ops[0].Qubits[0] = -1
				b.Circuit.X(0)
			}
		}()
	}
	wg.Wait()
	for name := range suiteBenchmarks {
		fresh, err := buildBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		if b, err := BenchmarkByName(name); err != nil || !reflect.DeepEqual(b, fresh) {
			t.Fatalf("%s: memoized benchmark changed under concurrent callers (err %v)", name, err)
		}
	}
}
