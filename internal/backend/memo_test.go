package backend_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/experiments"
	"biasmit/internal/quantum"
)

// The exact engine memoizes diag(ρ) after each plan's prefix process-wide
// (the steps before its diagonal-closed suffix). These tests reset the
// memo and read its entry and evolution counts through export_test.go;
// none of them calls t.Parallel, so no other test moves the counts while
// one runs.

// placedJob places a suite benchmark on m.
func placedJob(t *testing.T, name string, m *core.Machine) *core.Job {
	t.Helper()
	bench, err := experiments.BenchmarkByName(name)
	if err != nil {
		t.Fatal(err)
	}
	job, err := core.NewJob(bench.Circuit, m)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func sameHistogram(t *testing.T, label string, want, got *dist.Counts) {
	t.Helper()
	if backend.CountsDigest(want) != backend.CountsDigest(got) {
		t.Fatalf("%s: counts %v, want %v", label, got.Dist().P, want.Dist().P)
	}
}

func mustRun(t *testing.T, ctx context.Context, c *circuit.Circuit, dev *device.Device, opt backend.Options) *dist.Counts {
	t.Helper()
	counts, err := backend.RunContext(ctx, c, dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

func checkMemo(t *testing.T, label string, entries, evolutions int) {
	t.Helper()
	if e, v := backend.ExactMemoStats(); e != entries || v != evolutions {
		t.Fatalf("%s: memo holds %d entries after %d evolutions, want %d and %d", label, e, v, entries, evolutions)
	}
}

// TestExactDiagMatchesFullEvolution: for every inversion group of the
// 5-qubit suite under every noise corner, the diagonal the exact engine
// samples (a memoized prefix, the rest applied to the diagonal alone)
// equals, bit for bit, the diagonal of a density matrix evolved through
// every placed step. Each cell's first group evolves its prefix and the
// others reuse it.
func TestExactDiagMatchesFullEvolution(t *testing.T) {
	for _, cell := range allSIMCells() {
		for _, ab := range backend.FastPathAblations() {
			backend.ResetExactMemo()
			job := placedJob(t, cell.bench, core.NewMachine(cell.dev))
			for _, inv := range bitstring.All(job.Width()) {
				label := fmt.Sprintf("%s/%s/%s/inv=%s", cell.dev.Name, cell.bench, ab.Name, inv)
				engine, full, err := backend.ExactDiags(job.Plan.WithInversion(inv), cell.dev, ab.Opt)
				if err != nil {
					t.Fatal(err)
				}
				for i := range full {
					if math.Float64bits(engine[i]) != math.Float64bits(full[i]) && (engine[i] != 0 || full[i] != 0) {
						t.Fatalf("%s: diag[%d] = %v, full evolution %v", label, i, engine[i], full[i])
					}
				}
			}
			checkMemo(t, cell.dev.Name+"/"+cell.bench+"/"+ab.Name, 1, 1)
		}
	}
}

// TestExactMemoWarmKeyNotEvolvedAgain runs every inversion group of one
// program at several seeds after its first run: none evolves again, and
// each warm run's counts equal the same run's on an empty memo.
func TestExactMemoWarmKeyNotEvolvedAgain(t *testing.T) {
	dev := device.IBMQX4()
	job := placedJob(t, "qaoa-4B", core.NewMachine(dev))
	ctx := context.Background()
	backend.ResetExactMemo()
	mustRun(t, ctx, job.Plan.Physical, dev, backend.Options{Shots: 1000, Seed: 1})
	checkMemo(t, "first run", 1, 1)
	for _, inv := range bitstring.All(job.Width()) {
		for seed := int64(2); seed < 5; seed++ {
			opt := backend.Options{Shots: 1000, Seed: seed}
			warm := mustRun(t, ctx, job.Plan.WithInversion(inv), dev, opt)
			checkMemo(t, "warm run", 1, 1)
			if seed == 2 {
				backend.ResetExactMemo()
				cold := mustRun(t, ctx, job.Plan.WithInversion(inv), dev, opt)
				sameHistogram(t, "inv="+inv.String(), cold, warm)
				checkMemo(t, "cold run", 1, 1)
			}
		}
	}
}

// failingCtx reports no error for its first left Err calls and then
// fails: it returns context.Canceled, or panics when panics is set. On
// an empty memo the exact engine checks Err before every step of its
// prefix evolution, so a small left ends a run inside that evolution.
type failingCtx struct {
	context.Context
	left   int
	panics bool
}

func (c *failingCtx) Err() error {
	if c.left > 0 {
		c.left--
		return nil
	}
	if c.panics {
		panic("failingCtx: injected panic")
	}
	return context.Canceled
}

// TestExactMemoFailedEvolutionStoresNothing ends a run inside its prefix
// evolution, by cancellation and by a panic. Neither stores an entry or
// keeps the memo's lock: the next run evolves the prefix itself and gets
// the counts of a run that never saw the failure.
func TestExactMemoFailedEvolutionStoresNothing(t *testing.T) {
	dev := device.IBMQX4()
	job := placedJob(t, "bv-4A", core.NewMachine(dev))
	c := job.Plan.WithInversion(bitstring.Ones(job.Width()))
	opt := backend.Options{Shots: 3000, Seed: 5}
	backend.ResetExactMemo()
	want := mustRun(t, context.Background(), c, dev, opt)
	for _, panics := range []bool{false, true} {
		backend.ResetExactMemo()
		first := &failingCtx{Context: context.Background(), left: 5, panics: panics}
		func() {
			defer func() {
				if r := recover(); (r != nil) != panics {
					t.Fatalf("panics=%v: recovered %v", panics, r)
				}
			}()
			if _, err := backend.RunContext(first, c, dev, opt); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run: err %v, want context.Canceled", err)
			}
		}()
		if first.left != 0 {
			t.Fatalf("panics=%v: the run stopped before its evolution", panics)
		}
		checkMemo(t, fmt.Sprintf("panics=%v: after the failed run", panics), 0, 0)
		sameHistogram(t, "after a failed run", want, mustRun(t, context.Background(), c, dev, opt))
		checkMemo(t, fmt.Sprintf("panics=%v: after the next run", panics), 1, 1)
	}
}

// memoProgram is one exact-engine run.
type memoProgram struct {
	c   *circuit.Circuit
	dev *device.Device
	opt backend.Options
}

// TestExactMemoKeySeparatesPrograms runs pairs of programs whose
// prefixes differ in one thing each: a gate's qubit, one bit of a gate's
// matrix, one bit of a channel's probability, the register width, or a
// noise switch. The second of each pair evolves its own entry, and its
// counts equal its run on an empty memo.
func TestExactMemoKeySeparatesPrograms(t *testing.T) {
	qx4 := device.IBMQX4()
	// A GHZ chain on ibmqx4's coupling, then a Hadamard: the Hadamard is
	// not diagonal-closed, so every step before it is in the prefix.
	// Qubit 4 idles between its first Hadamard and the chain's last
	// CNOT, so schedule-aware decay and idle inversion both add steps
	// before the last Hadamard.
	ghz := func(n int, last func(c *circuit.Circuit) *circuit.Circuit) *circuit.Circuit {
		return last(circuit.New(n, "ghz-h").H(4).H(0).CX(1, 0).CX(2, 1).CX(3, 2).CX(3, 4))
	}
	h4 := func(c *circuit.Circuit) *circuit.Circuit { return c.H(4) }
	base := memoProgram{ghz(5, h4), qx4, backend.Options{}}

	nudged := quantum.H
	nudged[0][0] = complex(math.Nextafter(real(nudged[0][0]), 1), 0)
	noisier := qx4.Clone()
	noisier.Qubits[0].Gate1Error = math.Nextafter(noisier.Qubits[0].Gate1Error, 1)
	wider := qx4.Clone()
	wider.Name, wider.NumQubits = "ibmqx4+1", 6
	wider.Qubits = append(wider.Qubits, wider.Qubits[4])
	sched := backend.Options{ScheduleAwareDecay: true}

	pairs := []struct {
		name string
		a, b memoProgram
	}{
		{"gate qubit", base, memoProgram{ghz(5, func(c *circuit.Circuit) *circuit.Circuit { return c.H(3) }), qx4, backend.Options{}}},
		{"gate matrix", base, memoProgram{ghz(5, func(c *circuit.Circuit) *circuit.Circuit { return c.Gate(nudged, 4, "h") }), qx4, backend.Options{}}},
		{"channel probability", base, memoProgram{base.c, noisier, backend.Options{}}},
		{"register width", base, memoProgram{ghz(6, h4), wider, backend.Options{}}},
		{"NoDecay", base, memoProgram{base.c, qx4, backend.Options{NoDecay: true}}},
		{"ScheduleAwareDecay", base, memoProgram{base.c, qx4, sched}},
		{"IdleInversion", memoProgram{base.c, qx4, sched}, memoProgram{base.c, qx4, backend.Options{ScheduleAwareDecay: true, IdleInversion: true}}},
	}
	ctx := context.Background()
	for _, pair := range pairs {
		run := func(p memoProgram) *dist.Counts {
			p.opt.Shots, p.opt.Seed = 2000, 9
			return mustRun(t, ctx, p.c, p.dev, p.opt)
		}
		backend.ResetExactMemo()
		run(pair.a)
		got := run(pair.b)
		checkMemo(t, pair.name, 2, 2)
		backend.ResetExactMemo()
		sameHistogram(t, pair.name, run(pair.b), got)
	}
}

// boundPrograms returns n programs on ibmqx2 with pairwise different
// prefixes: a rotation by a different angle between two Hadamards.
func boundPrograms(n int) []*circuit.Circuit {
	out := make([]*circuit.Circuit, n)
	for i := range out {
		out[i] = circuit.New(5, fmt.Sprintf("rz-%d", i)).H(0).RZ(float64(i)/1000, 0).H(0).CX(1, 0)
	}
	return out
}

// TestExactMemoBounded runs more distinct programs than the memo's bound:
// every one evolves, and the entry count stops at the bound.
func TestExactMemoBounded(t *testing.T) {
	dev := device.IBMQX2()
	backend.ResetExactMemo()
	for i, c := range boundPrograms(backend.ExactMemoCap + 10) {
		mustRun(t, context.Background(), c, dev, backend.Options{Shots: 32, Seed: 1})
		checkMemo(t, c.Name, min(i+1, backend.ExactMemoCap), i+1)
	}
}

// TestExactMemoConcurrentRuns runs more distinct programs than the bound
// from four goroutines at once, each from its own start, so lookups,
// evolutions, stores and evictions interleave. Every run's counts equal
// the program's sequential counts, and the memo stays within its bound.
func TestExactMemoConcurrentRuns(t *testing.T) {
	dev := device.IBMQX2()
	progs := boundPrograms(backend.ExactMemoCap + 32)
	opt := backend.Options{Shots: 64, Seed: 3}
	want := make([]string, len(progs))
	for i, c := range progs {
		want[i] = backend.CountsDigest(mustRun(t, context.Background(), c, dev, opt))
	}
	backend.ResetExactMemo()
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range progs {
				i := (k + g*len(progs)/goroutines) % len(progs)
				counts, err := backend.RunContext(context.Background(), progs[i], dev, opt)
				if err != nil {
					t.Error(err)
					return
				}
				if got := backend.CountsDigest(counts); got != want[i] {
					t.Errorf("goroutine %d, %s: digest %s, want %s", g, progs[i].Name, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if entries, _ := backend.ExactMemoStats(); entries > backend.ExactMemoCap {
		t.Fatalf("memo holds %d entries, bound %d", entries, backend.ExactMemoCap)
	}
}

// TestExactMemoConcurrentSIMAIM runs eight SIM groups and then an AIM
// call at Machine.Workers 4 on an empty memo, under every noise corner.
// All groups run one placed program, so the SIM call leaves one entry
// (evolved at most once per group that missed it) and the AIM call, on
// the same program, evolves nothing. Both calls' merged counts equal
// those of the same calls at Workers 1.
func TestExactMemoConcurrentSIMAIM(t *testing.T) {
	ctx := context.Background()
	for _, dev := range []*device.Device{device.IBMQX2(), device.IBMQX4()} {
		for _, ab := range backend.FastPathAblations() {
			calls := func(workers int, between func()) (*core.SIMResult, *core.AIMResult) {
				m := core.NewMachine(dev)
				m.Opt = ab.Opt
				m.Workers = workers
				job := placedJob(t, "qaoa-4B", m)
				strings, err := core.StandardInversionStrings(job.Width(), 8)
				if err != nil {
					t.Fatal(err)
				}
				sim, err := core.SIMContext(ctx, job, strings, 3000, 11)
				if err != nil {
					t.Fatal(err)
				}
				between()
				aim, err := core.AIMContext(ctx, job, equalRBMS(job.Width()), core.AIMConfig{}, 3000, 11)
				if err != nil {
					t.Fatal(err)
				}
				return sim, aim
			}
			label := dev.Name + "/" + ab.Name
			backend.ResetExactMemo()
			wantSIM, wantAIM := calls(1, func() {})
			backend.ResetExactMemo()
			var evolved int
			sim, aim := calls(4, func() {
				var entries int
				entries, evolved = backend.ExactMemoStats()
				if entries != 1 || evolved < 1 || evolved > 8 {
					t.Fatalf("%s: SIM left %d entries after %d evolutions, want 1 after 1 to 8", label, entries, evolved)
				}
			})
			checkMemo(t, label+"/aim", 1, evolved)
			sameHistogram(t, label+"/sim", wantSIM.Merged, sim.Merged)
			sameHistogram(t, label+"/aim", wantAIM.Merged, aim.Merged)
		}
	}
}

// equalRBMS is a flat profile: every state equally strong.
func equalRBMS(width int) core.RBMS {
	strength := make([]float64, 1<<uint(width))
	for i := range strength {
		strength[i] = 1
	}
	rbms, err := core.NewRBMS(width, strength)
	if err != nil {
		panic(err)
	}
	return rbms
}
