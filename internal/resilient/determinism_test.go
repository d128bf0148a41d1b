package resilient_test

import (
	"context"
	"testing"
	"time"

	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/chaos"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/kernels"
	"biasmit/internal/resilient"
)

// newMachine builds a machine whose execution path is a retrying
// executor, optionally under fault injection.
func newMachine(t *testing.T, plan chaos.Plan, workers int) *core.Machine {
	t.Helper()
	ex := resilient.New(plan.Wrap(backend.RunContext), resilient.Policy{
		MaxAttempts: 60,
		Sleep:       func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	})
	m := core.NewMachine(device.IBMQX2())
	m.Workers = workers
	m.Run = ex.Run
	return m
}

func equalCounts(t *testing.T, label string, a, b *dist.Counts) {
	t.Helper()
	if a.Total() != b.Total() {
		t.Fatalf("%s: totals differ: %d vs %d", label, a.Total(), b.Total())
	}
	for _, o := range a.Outcomes() {
		if a.Get(o) != b.Get(o) {
			t.Fatalf("%s: outcome %v: %d vs %d", label, o, a.Get(o), b.Get(o))
		}
	}
}

// TestPoliciesByteIdenticalUnderFaults is the acceptance property of the
// resilience layer: with fault injection at a 30% rate and a fixed seed,
// baseline, SIM, and AIM distributions — and the brute-force RBMS
// profile feeding AIM — are byte-identical to the fault-free run at the
// same seed and worker count.
func TestPoliciesByteIdenticalUnderFaults(t *testing.T) {
	ctx := context.Background()
	// 0.22 transient + 0.08 partial = 30% of calls injured.
	faults := chaos.Plan{Seed: 7, TransientRate: 0.22, PartialRate: 0.08}
	bench := kernels.BV("bv-0111", bitstring.MustParse("0111"))
	const shots, seed = 2000, 2019

	type result struct {
		rbms     core.RBMS
		baseline *dist.Counts
		sim      *dist.Counts
		aim      *dist.Counts
	}
	runAll := func(plan chaos.Plan, workers int) result {
		t.Helper()
		m := newMachine(t, plan, workers)
		job, err := core.NewJob(bench.Circuit, m)
		if err != nil {
			t.Fatal(err)
		}
		var res result
		if res.rbms, err = job.Profiler().BruteForceContext(ctx, 128, seed+1); err != nil {
			t.Fatal(err)
		}
		if res.baseline, err = job.BaselineContext(ctx, shots, seed+2); err != nil {
			t.Fatal(err)
		}
		sim, err := core.SIM4Context(ctx, job, shots, seed+3)
		if err != nil {
			t.Fatal(err)
		}
		res.sim = sim.Merged
		aim, err := core.AIMContext(ctx, job, res.rbms, core.AIMConfig{}, shots, seed+4)
		if err != nil {
			t.Fatal(err)
		}
		res.aim = aim.Merged
		return res
	}

	clean := runAll(chaos.Plan{}, 2)
	faulty := runAll(faults, 2)
	for i, s := range clean.rbms.Strength {
		if s != faulty.rbms.Strength[i] {
			t.Fatalf("RBMS strength[%d] differs under faults: %v vs %v", i, s, faulty.rbms.Strength[i])
		}
	}
	equalCounts(t, "baseline", clean.baseline, faulty.baseline)
	equalCounts(t, "sim", clean.sim, faulty.sim)
	equalCounts(t, "aim", clean.aim, faulty.aim)

	// Worker count must not change results either (the repo-wide
	// contract), including under faults.
	sequential := runAll(faults, 1)
	equalCounts(t, "baseline seq-vs-par", clean.baseline, sequential.baseline)
	equalCounts(t, "sim seq-vs-par", clean.sim, sequential.sim)
	equalCounts(t, "aim seq-vs-par", clean.aim, sequential.aim)
}
