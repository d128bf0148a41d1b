package chaos

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/dist"
)

// okRunner returns a one-outcome histogram and records the shot budgets
// it was called with.
type okRunner struct {
	mu    sync.Mutex
	shots []int
}

func (r *okRunner) run(ctx context.Context, c *circuit.Circuit, dev *device.Device, opt backend.Options) (*dist.Counts, error) {
	r.mu.Lock()
	r.shots = append(r.shots, opt.Shots)
	r.mu.Unlock()
	counts := dist.NewCounts(dev.NumQubits)
	counts.Add(bitstring.Zeros(dev.NumQubits), opt.Shots)
	return counts, nil
}

func testCircuit() *circuit.Circuit {
	c := circuit.New(2, "probe")
	c.H(0)
	return c
}

func TestDisabledPlanPassesThrough(t *testing.T) {
	under := &okRunner{}
	run := Plan{}.Wrap(under.run)
	counts, err := run(context.Background(), testCircuit(), device.IBMQX2(), backend.Options{Shots: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if counts.Total() != 100 {
		t.Fatalf("total = %d, want 100", counts.Total())
	}
}

func TestFailFirst(t *testing.T) {
	under := &okRunner{}
	in := New(Plan{FailFirst: 3}, under.run)
	ctx := context.Background()
	opt := backend.Options{Shots: 10, Seed: 1}
	for i := 0; i < 3; i++ {
		_, err := in.Run(ctx, testCircuit(), device.IBMQX2(), opt)
		var te *backend.TransientError
		if !errors.As(err, &te) {
			t.Fatalf("call %d: error %v, want TransientError", i+1, err)
		}
	}
	if _, err := in.Run(ctx, testCircuit(), device.IBMQX2(), opt); err != nil {
		t.Fatalf("call 4 after fail-first budget: %v", err)
	}
	if s := in.Stats(); s.Transients != 3 || s.Calls != 4 {
		t.Fatalf("stats = %+v, want 3 transients over 4 calls", s)
	}
}

func TestTransientRateIsSeedDeterministic(t *testing.T) {
	outcome := func() []bool {
		under := &okRunner{}
		in := New(Plan{Seed: 42, TransientRate: 0.5}, under.run)
		var out []bool
		for i := 0; i < 64; i++ {
			_, err := in.Run(context.Background(), testCircuit(), device.IBMQX2(), backend.Options{Shots: 10, Seed: 1})
			out = append(out, err != nil)
		}
		return out
	}
	a, b := outcome(), outcome()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault schedule diverged at call %d", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("transient rate 0.5 produced %d/%d failures", fails, len(a))
	}
}

func TestPartialReallyRunsFewerTrials(t *testing.T) {
	under := &okRunner{}
	in := New(Plan{Seed: 3, PartialRate: 1}, under.run)
	_, err := in.Run(context.Background(), testCircuit(), device.IBMQX2(), backend.Options{Shots: 1000, Seed: 1})
	var te *backend.TransientError
	if !errors.As(err, &te) {
		t.Fatalf("error %v, want TransientError", err)
	}
	under.mu.Lock()
	defer under.mu.Unlock()
	if len(under.shots) != 1 || under.shots[0] >= 1000 {
		t.Fatalf("underlying runs %v, want one run with fewer than 1000 shots", under.shots)
	}
	if s := in.Stats(); s.Partials != 1 {
		t.Fatalf("stats = %+v, want one partial", s)
	}
}

func TestStallHonoursDeadline(t *testing.T) {
	under := &okRunner{}
	in := New(Plan{Seed: 5, StallRate: 1}, under.run)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := in.Run(ctx, testCircuit(), device.IBMQX2(), backend.Options{Shots: 10, Seed: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stall took %v, should end at the deadline", elapsed)
	}
}

func TestStallWithoutDeadlineDegradesToTransient(t *testing.T) {
	under := &okRunner{}
	in := New(Plan{Seed: 5, StallRate: 1}, under.run)
	_, err := in.Run(context.Background(), testCircuit(), device.IBMQX2(), backend.Options{Shots: 10, Seed: 1})
	var te *backend.TransientError
	if !errors.As(err, &te) {
		t.Fatalf("error %v, want TransientError (no deadline to stall against)", err)
	}
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		plan Plan
		ok   bool
	}{
		{Plan{}, true},
		{Plan{TransientRate: 0.3, PartialRate: 0.3, GraySlowRate: 0.3}, true},
		{Plan{TransientRate: 1.2}, false},
		{Plan{PartialRate: -0.1}, false},
		{Plan{TransientRate: 0.6, StallRate: 0.6}, false},
		{Plan{FailFirst: -1}, false},
	} {
		err := tc.plan.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.plan, err, tc.ok)
		}
	}
}

func TestGraySlowSucceedsSlowly(t *testing.T) {
	under := &okRunner{}
	in := New(Plan{Seed: 3, GraySlowRate: 1, GraySlow: 20 * time.Millisecond}, under.run)
	start := time.Now()
	counts, err := in.Run(context.Background(), testCircuit(), device.IBMQX2(), backend.Options{Shots: 50, Seed: 1})
	if err != nil {
		t.Fatalf("gray-slow call must succeed, got %v", err)
	}
	if counts.Total() != 50 {
		t.Fatalf("total = %d, want 50 (gray failures never corrupt results)", counts.Total())
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("gray-slow call finished in %v, want >= 50%% of the configured delay", elapsed)
	}
	if s := in.Stats(); s.GraySlows != 1 {
		t.Fatalf("stats = %+v, want one gray-slow", s)
	}
}

func TestGraySlowHonoursContext(t *testing.T) {
	under := &okRunner{}
	in := New(Plan{Seed: 3, GraySlowRate: 1, GraySlow: time.Minute}, under.run)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := in.Run(ctx, testCircuit(), device.IBMQX2(), backend.Options{Shots: 10, Seed: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("gray-slow under a tight deadline: %v, want deadline exceeded", err)
	}
}

func TestGrayModesValidate(t *testing.T) {
	if err := (Plan{GraySlowRate: 1.5}).Validate(); err == nil {
		t.Fatal("gray-slow rate > 1 accepted")
	}
	if err := (Plan{TransientRate: 0.6, GraySlowRate: 0.6}).Validate(); err == nil {
		t.Fatal("rate sum > 1 accepted")
	}
	if err := (Plan{GraySlowRate: -0.1}).Validate(); err == nil {
		t.Fatal("negative gray-slow rate accepted")
	}
	if !(Plan{GraySlowRate: 0.1}).Enabled() {
		t.Fatal("gray-slow must enable the injector")
	}
}
