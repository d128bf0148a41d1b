// Package chaos injects faults into the backend execution path so the
// resilience layer (internal/resilient) and everything above it can be
// tested against the failure modes real NISQ services exhibit: transient
// queue errors, runs that blow their deadline or succeed slowly, and
// jobs that return only part of the requested trials.
//
// The injector wraps a backend.Runner. Its fault schedule is
// deterministic and seed-derived: every intercepted call draws one
// splitmix64 stream keyed by (Plan.Seed, attempt index) — the same
// seeding discipline internal/orchestrate uses for job seeds — so a
// sequential run replays the identical fault sequence at the same seed.
// Under concurrency the attempt indices interleave nondeterministically,
// which is fine by construction: the resilience layer retries a failed
// run whole under its own seed, so results are independent of where
// faults land.
//
// biasmitd is the only process that injects faults (its -chaos-* flags
// set the Plan under its retrying executor); tests wrap a runner with
// a Plan explicitly. No environment variable turns it on.
//
// Faults never corrupt results: an injected failure either returns a
// typed *backend.TransientError (optionally after completing m < shots
// trials, simulating a partial job), delays the run (gray-slow), or
// parks the run until the context deadline (stall). A successful call is
// byte-identical to an uninjected one.
package chaos

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"biasmit/internal/backend"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/orchestrate"
)

// Plan configures the fault schedule. The zero value injects nothing;
// rates are probabilities in [0,1] and are evaluated in the order
// transient, partial, stall, gray-slow from a single uniform draw, so
// their sum must stay ≤ 1.
type Plan struct {
	// Seed drives the fault schedule. Equal seeds replay equal schedules
	// for sequential callers.
	Seed int64
	// TransientRate is the probability a call fails immediately with a
	// *backend.TransientError, having done no work.
	TransientRate float64
	// PartialRate is the probability a call completes only m < shots
	// trials (m drawn uniformly) and then fails transiently — the work
	// is really performed and then lost, like a job evicted mid-run.
	PartialRate float64
	// StallRate is the probability a call blocks until its context
	// deadline and returns the context error — the fault that exercises
	// deadline handling end to end. Calls without a deadline degrade to a
	// plain transient failure instead of hanging forever.
	StallRate float64
	// GraySlowRate is the probability of a gray failure: the call
	// succeeds — nothing for a retry to react to — but only after a
	// delay of 50–100% of GraySlow. This is the slow-drip backend that
	// kills services the error handling cannot see: slow runs hold
	// their admission slots longer, so what reacts to it is a shedding
	// admission gate's queue timeout (and deadlines).
	GraySlowRate float64
	// GraySlow is the maximum gray-failure delay (default 100ms when a
	// gray-slow fault fires with a zero GraySlow).
	GraySlow time.Duration
	// FailFirst deterministically fails the first N intercepted calls
	// with a transient error before the probabilistic schedule applies:
	// with one attempt per run, the first N runs answer a typed
	// transient failure and run N+1 succeeds.
	FailFirst int
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return p.TransientRate > 0 || p.PartialRate > 0 || p.StallRate > 0 ||
		p.GraySlowRate > 0 || p.FailFirst > 0
}

// Validate rejects malformed rates.
func (p Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"transient", p.TransientRate},
		{"partial", p.PartialRate},
		{"stall", p.StallRate},
		{"gray-slow", p.GraySlowRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("chaos: %s rate %v out of [0,1]", r.name, r.v)
		}
	}
	if sum := p.TransientRate + p.PartialRate + p.StallRate + p.GraySlowRate; sum > 1 {
		return fmt.Errorf("chaos: fault rates sum to %v > 1", sum)
	}
	if p.FailFirst < 0 {
		return fmt.Errorf("chaos: fail-first %d is negative", p.FailFirst)
	}
	return nil
}

// Stats counts injected faults since the injector was created.
type Stats struct {
	Calls      uint64
	Transients uint64
	Partials   uint64
	Stalls     uint64
	GraySlows  uint64
}

// Injector intercepts backend runs according to a Plan. Construct with
// New; safe for concurrent use.
type Injector struct {
	plan Plan
	run  backend.Runner

	attempt    atomic.Int64 // next fault-schedule stream index
	calls      atomic.Uint64
	transients atomic.Uint64
	partials   atomic.Uint64
	stalls     atomic.Uint64
	graySlows  atomic.Uint64
}

// New wraps run with fault injection under plan.
func New(plan Plan, run backend.Runner) *Injector {
	return &Injector{plan: plan, run: run}
}

// Wrap returns a backend.Runner injecting faults under p. A disabled
// plan returns run unchanged, so wiring chaos unconditionally costs
// nothing in production paths.
func (p Plan) Wrap(run backend.Runner) backend.Runner {
	if !p.Enabled() {
		return run
	}
	return New(p, run).Run
}

// Stats returns the fault counters so far.
func (in *Injector) Stats() Stats {
	return Stats{
		Calls:      in.calls.Load(),
		Transients: in.transients.Load(),
		Partials:   in.partials.Load(),
		Stalls:     in.stalls.Load(),
		GraySlows:  in.graySlows.Load(),
	}
}

// transientf builds the typed transient error every injected failure
// carries.
func transientf(format string, args ...any) error {
	return &backend.TransientError{Op: "chaos", Err: fmt.Errorf(format, args...)}
}

// Run is the injector's backend.Runner. Each call consumes one attempt
// index from the schedule; the fault (if any) for that index is a pure
// function of (Plan.Seed, index).
func (in *Injector) Run(ctx context.Context, c *circuit.Circuit, dev *device.Device, opt backend.Options) (*dist.Counts, error) {
	attempt := in.attempt.Add(1) - 1
	in.calls.Add(1)
	if attempt < int64(in.plan.FailFirst) {
		in.transients.Add(1)
		return nil, transientf("injected fail-first failure %d/%d", attempt+1, in.plan.FailFirst)
	}
	rng := rand.New(rand.NewSource(orchestrate.DeriveSeed(in.plan.Seed, int(attempt))))
	u := rng.Float64()
	switch {
	case u < in.plan.TransientRate:
		in.transients.Add(1)
		return nil, transientf("injected transient failure (attempt %d)", attempt)
	case u < in.plan.TransientRate+in.plan.PartialRate:
		in.partials.Add(1)
		return nil, in.partial(ctx, c, dev, opt, rng, attempt)
	case u < in.plan.TransientRate+in.plan.PartialRate+in.plan.StallRate:
		in.stalls.Add(1)
		if _, ok := ctx.Deadline(); !ok {
			// No deadline to blow: degrade to a transient failure rather
			// than hanging an undeadlined caller forever.
			return nil, transientf("injected stall (no deadline to exhaust, attempt %d)", attempt)
		}
		<-ctx.Done()
		return nil, fmt.Errorf("chaos: injected stall exhausted the deadline (attempt %d): %w", attempt, ctx.Err())
	case u < in.plan.TransientRate+in.plan.PartialRate+in.plan.StallRate+in.plan.GraySlowRate:
		in.graySlows.Add(1)
		if err := in.graySlow(ctx, rng); err != nil {
			return nil, err
		}
	}
	return in.run(ctx, c, dev, opt)
}

// graySlow sleeps 50–100% of Plan.GraySlow and then lets the call
// succeed: the gray failure that never trips error-rate machinery. The
// 50% floor keeps the fault unmistakably slow — a uniform draw from zero
// would sometimes inject delays indistinguishable from health.
func (in *Injector) graySlow(ctx context.Context, rng *rand.Rand) error {
	max := in.plan.GraySlow
	if max <= 0 {
		max = 100 * time.Millisecond
	}
	d := max/2 + time.Duration(rng.Int63n(int64(max/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// partial completes m < shots trials for real — consuming the same
// per-trial RNG stream prefix the full run would — and then reports a
// transient failure, so the caller observes a job evicted mid-run. The
// completed trials are genuinely lost: a retry replays the whole run.
func (in *Injector) partial(ctx context.Context, c *circuit.Circuit, dev *device.Device, opt backend.Options, rng *rand.Rand, attempt int64) error {
	m := 0
	if opt.Shots > 1 {
		m = rng.Intn(opt.Shots) // 0 ≤ m < shots
	}
	if m > 0 {
		partialOpt := opt
		partialOpt.Shots = m
		if _, err := in.run(ctx, c, dev, partialOpt); err != nil {
			// The underlying run failed on its own; report that, but keep
			// it transient so the retry semantics stay uniform.
			if ctx.Err() != nil {
				return err
			}
			return &backend.TransientError{Op: "chaos", Err: err}
		}
	}
	return transientf("injected partial result: %d of %d trials completed (attempt %d)", m, opt.Shots, attempt)
}

// Flags registers biasmitd's -chaos-* flag family on fs and returns the
// Plan they populate.
func Flags(fs *flag.FlagSet) *Plan {
	p := &Plan{}
	fs.Int64Var(&p.Seed, "chaos-seed", 1, "seed for the deterministic fault schedule")
	fs.Float64Var(&p.TransientRate, "chaos-transient", 0, "probability a backend call fails with a transient error")
	fs.Float64Var(&p.PartialRate, "chaos-partial", 0, "probability a backend call completes only part of its trials, then fails")
	fs.Float64Var(&p.StallRate, "chaos-stall", 0, "probability a backend call blocks until its deadline")
	fs.Float64Var(&p.GraySlowRate, "chaos-gray-slow-rate", 0, "probability a backend call succeeds slowly (gray failure)")
	fs.DurationVar(&p.GraySlow, "chaos-gray-slow", 100*time.Millisecond, "maximum gray-failure delay (calls sleep 50-100% of this)")
	fs.IntVar(&p.FailFirst, "chaos-fail-first", 0, "deterministically fail this many calls before the probabilistic schedule applies")
	return p
}
