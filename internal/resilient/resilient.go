// Package resilient executes backend runs on unreliable machines: it
// retries transient failures with exponential backoff and full jitter,
// and fails fast on permanent errors (see IsTransient). biasmitd's one
// executor, shared by every machine, is the only place a failed run is
// retried; the offline CLIs call the backend directly, and nothing
// above the executor (the job queue, the client) retries again.
//
// # Retries and determinism
//
// A retry replays the whole run under the caller's seed. A failed call
// returns no counts (a partial job's completed trials are discarded with
// it), so the counts a run returns are always those of one complete
// backend call with the caller's options — a pure function of (circuit,
// device, options) that does not depend on how many attempts were needed
// or where faults landed. With fault injection at any rate and a fixed
// seed, the returned dist.Counts are byte-identical to the fault-free
// run, and byte-compatible with calling the backend directly.
package resilient

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"biasmit/internal/backend"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/obs"
)

// Policy tunes an Executor. Zero values select the defaults.
type Policy struct {
	// MaxAttempts bounds how many times a run is executed before the
	// last transient error is surfaced (default 4; 1 disables retries).
	// The delay before attempt k (k ≥ 2) is uniform in
	// (0, min(maxDelay, baseDelay·2^(k-2))] — "full jitter".
	MaxAttempts int
	// Seed drives the backoff jitter. Jitter affects only timing, never
	// results; a zero seed uses 1.
	Seed int64
	// Sleep overrides the backoff sleep, for tests. It must honour ctx.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Stats counts an executor's outcomes since New.
type Stats struct {
	Runs     uint64 // runs started
	Retries  uint64 // attempts after a run's first
	Failures uint64 // runs that ultimately failed
}

// The full-jitter backoff starts at baseDelay and doubles per retry up
// to maxDelay.
const (
	baseDelay = 50 * time.Millisecond
	maxDelay  = 2 * time.Second
)

// Executor is a retrying backend.Runner. Construct with New; safe for
// concurrent use (core fans SIM/AIM groups out over one shared
// executor).
type Executor struct {
	run    backend.Runner
	policy Policy

	runs, retries, failures atomic.Uint64

	mu  sync.Mutex
	rng *rand.Rand // backoff jitter
}

// New wraps run with the retry policy.
func New(run backend.Runner, p Policy) *Executor {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return &Executor{run: run, policy: p, rng: rand.New(rand.NewSource(p.Seed))}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff returns the full-jitter delay before the given retry (attempt
// numbering starts at 1; the first retry is attempt 2).
func (e *Executor) backoff(attempt int) time.Duration {
	max := baseDelay << uint(attempt-2)
	if max <= 0 || max > maxDelay {
		max = maxDelay
	}
	e.mu.Lock()
	d := time.Duration(e.rng.Int63n(int64(max))) + 1
	e.mu.Unlock()
	return d
}

// Stats copies the counters.
func (e *Executor) Stats() Stats {
	return Stats{Runs: e.runs.Load(), Retries: e.retries.Load(), Failures: e.failures.Load()}
}

// Run executes one backend run under the policy. It implements
// backend.Runner, so a *core.Machine can use it directly.
func (e *Executor) Run(ctx context.Context, c *circuit.Circuit, dev *device.Device, opt backend.Options) (*dist.Counts, error) {
	if err := backend.CheckShots(opt.Shots); err != nil {
		// A bad budget is the caller's mistake, not the machine's: fail
		// before any attempt.
		return nil, err
	}
	e.runs.Add(1)

	var lastErr error
	for attempt := 1; attempt <= e.policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			e.retries.Add(1)
		}
		if lastErr = ctx.Err(); lastErr != nil {
			break
		}
		counts, err := e.run(ctx, c, dev, opt)
		if err == nil {
			return counts, nil
		}
		lastErr = err
		if !IsTransient(err) || attempt == e.policy.MaxAttempts {
			break
		}
		obs.Annotate(ctx, "retry %d/%d after transient: %v", attempt+1, e.policy.MaxAttempts, err)
		if err := e.policy.Sleep(ctx, e.backoff(attempt+1)); err != nil {
			lastErr = err
			break
		}
	}
	e.failures.Add(1)
	return nil, lastErr
}
