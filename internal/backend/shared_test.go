package backend_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/experiments"
)

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

// aloneCounts runs job's group under inv on a context with no shared
// prefix.
func aloneCounts(t *testing.T, job *core.Job, inv bitstring.Bits, opt backend.Options) *dist.Counts {
	t.Helper()
	counts, err := backend.RunContext(context.Background(), job.Plan.WithInversion(inv), job.Machine.Device, opt)
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

func sameHistogram(t *testing.T, label string, want, got *dist.Counts) {
	t.Helper()
	if backend.CountsDigest(want) != backend.CountsDigest(got) {
		t.Fatalf("%s: counts %v, want %v", label, got.Dist().P, want.Dist().P)
	}
}

// failingCtx reports no error for its first left Err calls and then
// fails: it returns context.Canceled, or panics when panics is set. The
// exact engine checks Err before every evolution step, so a small left
// ends a run inside its first evolution.
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

// TestSharedPrefixCancelledMemoizesNothing ends the first group of a
// shared prefix inside the prefix evolution, by cancellation and by a
// panic. Neither stores a prefix or keeps the handle's lock: the next
// group evolves the prefix itself and gets the counts of a run without
// the handle.
func TestSharedPrefixCancelledMemoizesNothing(t *testing.T) {
	dev := device.IBMQX4()
	job := placedJob(t, "bv-4A", core.NewMachine(dev))
	w := job.Width()
	opt := backend.Options{Shots: 3000, Seed: 5}
	for _, panics := range []bool{false, true} {
		hctx := backend.WithSharedPrefix(context.Background(), job.Plan.Physical, dev, job.Machine.Opt)
		first := &failingCtx{Context: hctx, left: 5, panics: panics}
		func() {
			defer func() {
				if r := recover(); (r != nil) != panics {
					t.Fatalf("panics=%v: recovered %v", panics, r)
				}
			}()
			_, err := backend.RunContext(first, job.Plan.WithInversion(bitstring.Ones(w)), dev, opt)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled group: err %v, want context.Canceled", err)
			}
		}()
		if first.left != 0 {
			t.Fatalf("panics=%v: the group stopped before its evolution", panics)
		}
		if _, n := backend.PrefixHandle(hctx); n != 0 {
			t.Fatalf("panics=%v: %d prefix evolutions stored by a failed group", panics, n)
		}
		for _, inv := range []bitstring.Bits{bitstring.Ones(w), bitstring.Zeros(w)} {
			got, err := backend.RunContext(hctx, job.Plan.WithInversion(inv), dev, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameHistogram(t, "after a failed group, inv="+inv.String(), aloneCounts(t, job, inv, opt), got)
		}
		if _, n := backend.PrefixHandle(hctx); n != 1 {
			t.Fatalf("panics=%v: %d prefix evolutions after the failed group, want 1", panics, n)
		}
	}
}

// TestSharedPrefixEndsAtTheLastOp runs the all-ones group first under a
// fresh handle, then the all-zeros group, under every noise corner. The
// all-ones group evolves the prefix, so the prefix holds only the steps
// of the program's own ops: with ScheduleAwareDecay the X layer moves the
// final idle gaps, which are then part of each group's own tail. The
// all-zeros group reuses the prefix, and both get the counts of runs
// without the handle.
func TestSharedPrefixEndsAtTheLastOp(t *testing.T) {
	dev := device.IBMQX4()
	for _, ab := range backend.FastPathAblations() {
		m := core.NewMachine(dev)
		m.Opt = ab.Opt
		job := placedJob(t, "qaoa-4B", m)
		w := job.Width()
		hctx := backend.WithSharedPrefix(context.Background(), job.Plan.Physical, dev, m.Opt)
		for _, inv := range []bitstring.Bits{bitstring.Ones(w), bitstring.Zeros(w)} {
			opt := m.Opt
			opt.Shots, opt.Seed = 1000, 13
			got, err := backend.RunContext(hctx, job.Plan.WithInversion(inv), dev, opt)
			if err != nil {
				t.Fatal(err)
			}
			label := ab.Name + "/inv=" + inv.String()
			sameHistogram(t, label, aloneCounts(t, job, inv, opt), got)
			if _, n := backend.PrefixHandle(hctx); n != 1 {
				t.Fatalf("%s: %d prefix evolutions, want 1", label, n)
			}
		}
	}
}

// TestSharedPrefixIgnoresOtherPrograms attaches a handle for another
// circuit, another device or other noise options. A run under it evolves
// alone, with the counts of a run without it.
func TestSharedPrefixIgnoresOtherPrograms(t *testing.T) {
	qx4 := device.IBMQX4()
	job := placedJob(t, "bv-4A", core.NewMachine(qx4))
	other := placedJob(t, "qaoa-4B", core.NewMachine(qx4))
	w := job.Width()
	cases := []struct {
		name   string
		handle context.Context
	}{
		{"another circuit", backend.WithSharedPrefix(context.Background(), other.Plan.Physical, qx4, backend.Options{})},
		{"another device", backend.WithSharedPrefix(context.Background(), job.Plan.Physical, device.IBMQX4(), backend.Options{})},
		{"other noise options", backend.WithSharedPrefix(context.Background(), job.Plan.Physical, qx4, backend.Options{NoDecay: true})},
		{"schedule-aware decay", backend.WithSharedPrefix(context.Background(), job.Plan.Physical, qx4, backend.Options{ScheduleAwareDecay: true})},
	}
	for _, tc := range cases {
		for _, inv := range []bitstring.Bits{bitstring.Zeros(w), bitstring.Ones(w)} {
			opt := backend.Options{Shots: 2000, Seed: 9}
			got, err := backend.RunContext(tc.handle, job.Plan.WithInversion(inv), qx4, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameHistogram(t, tc.name+"/inv="+inv.String(), aloneCounts(t, job, inv, opt), got)
		}
		if _, n := backend.PrefixHandle(tc.handle); n != 0 {
			t.Errorf("%s: the handle evolved its prefix %d times for runs it does not match", tc.name, n)
		}
	}
}

// TestSharedPrefixEvolvedOnce runs eight SIM groups and an AIM call at
// Machine.Workers 4, under every noise corner the prefix can differ in.
// Each call's groups reach one handle, which evolves its prefix once,
// and the merged counts equal those of sequential groups that each evolve
// alone.
func TestSharedPrefixEvolvedOnce(t *testing.T) {
	ablations := backend.FastPathAblations()
	for _, dev := range []*device.Device{device.IBMQX2(), device.IBMQX4()} {
		for _, ab := range ablations {
			var (
				mu sync.Mutex
				// runs counts the runs that saw each handle, and evolved
				// holds the most prefix evolutions one of them saw.
				runs    = map[any]int{}
				evolved = map[any]int{}
			)
			m := core.NewMachine(dev)
			m.Opt = ab.Opt
			m.Workers = 4
			m.Run = func(ctx context.Context, c *circuit.Circuit, dev *device.Device, opt backend.Options) (*dist.Counts, error) {
				counts, err := backend.RunContext(ctx, c, dev, opt)
				h, n := backend.PrefixHandle(ctx)
				mu.Lock()
				runs[h]++
				evolved[h] = max(evolved[h], n)
				mu.Unlock()
				return counts, err
			}
			job := placedJob(t, "qaoa-4B", m)
			alone := core.NewMachine(dev)
			alone.Opt = ab.Opt
			alone.Workers = 1
			alone.Run = func(_ context.Context, c *circuit.Circuit, dev *device.Device, opt backend.Options) (*dist.Counts, error) {
				return backend.RunContext(context.Background(), c, dev, opt)
			}
			seqJob := placedJob(t, "qaoa-4B", alone)

			strings, err := core.StandardInversionStrings(job.Width(), 8)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := core.SIMContext(context.Background(), job, strings, 3000, 11)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.SIMContext(context.Background(), seqJob, strings, 3000, 11)
			if err != nil {
				t.Fatal(err)
			}
			label := dev.Name + "/" + ab.Name
			sameHistogram(t, label+"/sim", want.Merged, sim.Merged)
			checkOneEvolution(t, label+"/sim", runs, evolved, 8)

			clear(runs)
			clear(evolved)
			rbms := equalRBMS(job.Width())
			aim, err := core.AIMContext(context.Background(), job, rbms, core.AIMConfig{}, 3000, 11)
			if err != nil {
				t.Fatal(err)
			}
			wantAIM, err := core.AIMContext(context.Background(), seqJob, rbms, core.AIMConfig{}, 3000, 11)
			if err != nil {
				t.Fatal(err)
			}
			sameHistogram(t, label+"/aim", wantAIM.Merged, aim.Merged)
			checkOneEvolution(t, label+"/aim", runs, evolved, 8)
		}
	}
}

// checkOneEvolution requires that all want runs saw one handle, which
// had evolved its prefix exactly once by the time the last one ended.
func checkOneEvolution(t *testing.T, label string, runs, evolved map[any]int, want int) {
	t.Helper()
	if len(runs) != 1 {
		t.Fatalf("%s: groups saw %d handles, want 1", label, len(runs))
	}
	for h, n := range runs {
		if h == nil || n != want {
			t.Fatalf("%s: %d runs saw handle %v, want %d", label, n, h, want)
		}
		if evolved[h] != 1 {
			t.Fatalf("%s: the handle evolved its prefix %d times, want 1", label, evolved[h])
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
