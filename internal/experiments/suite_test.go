package experiments

import (
	"reflect"
	"strconv"
	"strings"
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
	if _, err := BenchmarkByName("qaoa-5"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestBenchmarkByNameShorthands: bv:<key>, prep:<bits> and ghz-<n>
// resolve to their kernels under the name asked for, with their correct
// outputs, and a malformed shorthand fails with its own message.
func TestBenchmarkByNameShorthands(t *testing.T) {
	for _, tc := range []struct {
		name    string
		width   int
		correct []string
	}{
		{"bv:0111", 5, []string{"10111"}},
		{"prep:101", 3, []string{"101"}},
		{"ghz-3", 3, []string{"000", "111"}},
	} {
		b, err := BenchmarkByName(tc.name)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var correct []string
		for _, c := range b.Correct {
			correct = append(correct, c.String())
		}
		if b.Name != tc.name || b.Width() != tc.width || !reflect.DeepEqual(correct, tc.correct) {
			t.Fatalf("%s: got %s, %d qubits, correct %v; want %d qubits, correct %v",
				tc.name, b.Name, b.Width(), correct, tc.width, tc.correct)
		}
	}
	// Shorthands too wide for the simulator fail here rather than panic
	// in circuit construction.
	wide := strings.Repeat("1", quantum.MaxQubits)
	tooMany := strconv.Itoa(quantum.MaxQubits + 1)
	for name, want := range map[string]string{
		"bv:01x":         "bad bv key: ",
		"bv:" + wide:     "bad bv key: ",
		"prep:2":         "bad prep state: ",
		"prep:1" + wide:  "bad prep state: ",
		"ghz-0":          `bad ghz size in "ghz-0"`,
		"ghz-two":        `bad ghz size in "ghz-two"`,
		"ghz-" + tooMany: `bad ghz size in "ghz-` + tooMany + `"`,
		"bv-5":           `experiments: unknown benchmark "bv-5"`,
	} {
		if _, err := BenchmarkByName(name); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: error %v, want one starting %q", name, err, want)
		}
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
