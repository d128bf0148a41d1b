package backend_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"biasmit/internal/backend"
	"biasmit/internal/chaos"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/resilient"
)

// TestScratchIntegrityUnderChaosAndCancel: every run takes its
// generator, trajectory state vector, batch sampler and exact-engine
// buffers from one free list (runScratch) and hands them back on every
// exit — injected transient and partial faults, contexts cancelled
// before or during the run, retries replaying failed runs. A scratch
// released twice, or one whose leftovers a later run reads before
// writing, shows up as cross-talk between unrelated runs, so the proof
// is end-state determinism: after a concurrent storm of faulted and
// cancelled runs, a clean run is byte-identical to the pristine
// reference taken before the storm. Run under -race (CI repeats it) so
// overlapping takes and releases are also checked.
func TestScratchIntegrityUnderChaosAndCancel(t *testing.T) {
	dev := device.IBMQX4()
	c := ghzQX4()
	opts := backend.Options{Shots: 400, Seed: 99, ShotsPerTrajectory: 8}

	reference, err := backend.RunContext(context.Background(), c, dev, opts)
	if err != nil {
		t.Fatal(err)
	}

	plan := chaos.Plan{Seed: 202, TransientRate: 0.3, PartialRate: 0.2}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	policy := resilient.Policy{
		MaxAttempts: 10,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}

	const workers = 8
	const itersPerWorker = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			exec := resilient.New(plan.Wrap(backend.RunContext), policy)
			for i := 0; i < itersPerWorker; i++ {
				o := opts
				o.Seed = int64(w*1000 + i + 1)
				switch i % 3 {
				case 0:
					// Faulted but completing run: retries replay the
					// failed run through reused scratch.
					if _, err := exec.Run(context.Background(), c, dev, o); err != nil {
						t.Errorf("worker %d iter %d: %v", w, i, err)
						return
					}
				case 1:
					// Cancelled before it starts: the error path must
					// still hand its scratch back once.
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					_, _ = backend.RunContext(ctx, c, dev, o)
				default:
					// Cancelled mid-run: the deadline fires somewhere
					// inside the trial loop.
					ctx, cancel := context.WithTimeout(context.Background(), 100*time.Microsecond)
					_, _ = backend.RunContext(ctx, c, dev, o)
					cancel()
				}
			}
		}(w)
	}
	wg.Wait()

	after, err := backend.RunContext(context.Background(), c, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	refOutcomes := reference.Outcomes()
	gotOutcomes := after.Outcomes()
	if len(refOutcomes) != len(gotOutcomes) {
		t.Fatalf("post-storm support size %d, want %d — a reused scratch was corrupted", len(gotOutcomes), len(refOutcomes))
	}
	for _, o := range refOutcomes {
		if after.Get(o) != reference.Get(o) {
			t.Fatalf("post-storm counts differ at %s: %d vs reference %d — scratch state leaked between runs",
				o, after.Get(o), reference.Get(o))
		}
	}
}

// ghzQX4 is a 5-qubit GHZ chain on ibmqx4's coupling.
func ghzQX4() *circuit.Circuit {
	return circuit.New(5, "ghz").H(0).CX(1, 0).CX(2, 1).CX(3, 2).CX(3, 4)
}

// TestTrajectoryAllocsSurviveGC: a trajectory run made right after two GC
// cycles allocates exactly what a warm run does, because everything it
// reuses waits on the scratch free list, which a collection does not
// empty. testing.AllocsPerRun cannot show this: it warms up first and
// collects only before its timed runs, which then reuse each other's
// buffers. The runtime's own goroutines sometimes allocate just after a
// collection, which the process-wide count includes, so each side keeps
// the fewest of a few runs; what a collection takes from the run itself
// shows in every cold run.
func TestTrajectoryAllocsSurviveGC(t *testing.T) {
	dev := device.IBMQX4()
	c := ghzQX4()
	fewest := func(opt backend.Options, collect bool) uint64 {
		least := ^uint64(0)
		for i := 0; i < 5; i++ {
			if collect {
				runtime.GC()
				runtime.GC()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := backend.RunContext(context.Background(), c, dev, opt); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	for _, perTrajectory := range []int{1, 8} {
		opt := backend.Options{Shots: 256, Seed: 5, ShotsPerTrajectory: perTrajectory}
		warm := fewest(opt, false)
		if cold := fewest(opt, true); cold != warm {
			t.Errorf("ShotsPerTrajectory %d: a run after two GC cycles allocates %d objects, a warm run %d",
				perTrajectory, cold, warm)
		}
	}
}
