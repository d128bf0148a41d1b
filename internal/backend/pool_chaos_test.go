package backend_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"biasmit/internal/backend"
	"biasmit/internal/chaos"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/resilient"
)

// TestPoolIntegrityUnderChaosAndCancel is the regression test for the
// sync.Pool audit: the trial loop's pooled state/sampler buffers must
// survive every abnormal exit — injected transient and partial faults,
// contexts cancelled mid-run, retries replaying failed runs — without
// a buffer being double-Put or a torn one re-entering the
// pool. A corrupted free list shows up as cross-talk between
// unrelated runs, so the proof is end-state determinism: after a
// concurrent storm of faulted and cancelled runs, a clean run is
// byte-identical to the pristine reference taken before the storm.
// Run under -race (CI does) so overlapping Put/Get is also checked.
func TestPoolIntegrityUnderChaosAndCancel(t *testing.T) {
	dev := device.IBMQX4()
	c := circuit.New(5, "ghz").H(0).CX(1, 0).CX(2, 1).CX(3, 2).CX(3, 4)
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
					// failed run through the pooled buffers.
					if _, err := exec.Run(context.Background(), c, dev, o); err != nil {
						t.Errorf("worker %d iter %d: %v", w, i, err)
						return
					}
				case 1:
					// Cancelled before it starts: the error path must
					// still unwind the acquire/release pairs cleanly.
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
		t.Fatalf("post-storm support size %d, want %d — a pooled buffer was corrupted", len(gotOutcomes), len(refOutcomes))
	}
	for _, o := range refOutcomes {
		if after.Get(o) != reference.Get(o) {
			t.Fatalf("post-storm counts differ at %s: %d vs reference %d — pooled state leaked between runs",
				o, after.Get(o), reference.Get(o))
		}
	}
}
