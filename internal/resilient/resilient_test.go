package resilient

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/dist"
)

// noSleep skips backoff delays in tests.
func noSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

// scriptRunner fails according to a per-call script: calls whose index
// (0-based) is in fail return a transient error; entries in perm return
// a permanent error instead. Successful calls return every shot on the
// all-zeros outcome, and every call's seed is recorded.
type scriptRunner struct {
	mu    sync.Mutex
	calls int
	fail  map[int]bool
	perm  map[int]error
	seeds []int64
}

func (r *scriptRunner) run(ctx context.Context, c *circuit.Circuit, dev *device.Device, opt backend.Options) (*dist.Counts, error) {
	r.mu.Lock()
	i := r.calls
	r.calls++
	r.seeds = append(r.seeds, opt.Seed)
	r.mu.Unlock()
	if err, ok := r.perm[i]; ok {
		return nil, err
	}
	if r.fail[i] {
		return nil, &backend.TransientError{Op: "test", Err: fmt.Errorf("scripted failure %d", i)}
	}
	counts := dist.NewCounts(dev.NumQubits)
	counts.Add(bitstring.Zeros(dev.NumQubits), opt.Shots)
	return counts, nil
}

func (r *scriptRunner) callCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

func probeCircuit() *circuit.Circuit {
	c := circuit.New(2, "probe")
	c.H(0)
	return c
}

func runOpts(shots int) backend.Options { return backend.Options{Shots: shots, Seed: 11} }

func TestRetriesTransientThenSucceeds(t *testing.T) {
	r := &scriptRunner{fail: map[int]bool{0: true, 1: true}}
	ex := New(r.run, Policy{MaxAttempts: 4, Sleep: noSleep})
	counts, err := ex.Run(context.Background(), probeCircuit(), device.IBMQX2(), runOpts(100))
	if err != nil {
		t.Fatal(err)
	}
	if counts.Total() != 100 {
		t.Fatalf("total = %d, want 100", counts.Total())
	}
	if r.callCount() != 3 {
		t.Fatalf("calls = %d, want 3", r.callCount())
	}
	if s := ex.Stats(); s.Runs != 1 || s.Retries != 2 || s.Failures != 0 {
		t.Fatalf("stats = %+v", s)
	}
	for i, seed := range r.seeds {
		if seed != 11 {
			t.Fatalf("attempt %d ran with seed %d, want the caller's seed 11", i+1, seed)
		}
	}
}

func TestPermanentErrorFailsFast(t *testing.T) {
	permanent := errors.New("qasm: parse error")
	r := &scriptRunner{perm: map[int]error{0: permanent}}
	ex := New(r.run, Policy{MaxAttempts: 4, Sleep: noSleep})
	_, err := ex.Run(context.Background(), probeCircuit(), device.IBMQX2(), runOpts(100))
	if !errors.Is(err, permanent) {
		t.Fatalf("error = %v, want the permanent error", err)
	}
	if r.callCount() != 1 {
		t.Fatalf("calls = %d, want 1 (no retry of a permanent error)", r.callCount())
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	r := &scriptRunner{fail: map[int]bool{0: true, 1: true, 2: true}}
	ex := New(r.run, Policy{MaxAttempts: 3, Sleep: noSleep})
	_, err := ex.Run(context.Background(), probeCircuit(), device.IBMQX2(), runOpts(100))
	if !IsTransient(err) {
		t.Fatalf("error = %v, want the final transient error", err)
	}
	if r.callCount() != 3 {
		t.Fatalf("calls = %d, want 3", r.callCount())
	}
	if s := ex.Stats(); s.Failures != 1 {
		t.Fatalf("stats = %+v, want one failed run", s)
	}
}

func TestBadBudgetNeverDispatches(t *testing.T) {
	r := &scriptRunner{}
	ex := New(r.run, Policy{Sleep: noSleep})
	_, err := ex.Run(context.Background(), probeCircuit(), device.IBMQX2(), runOpts(-5))
	var be *backend.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error = %v, want BudgetError", err)
	}
	if r.callCount() != 0 {
		t.Fatal("a bad budget must not reach the backend")
	}
	if s := ex.Stats(); s.Runs != 0 {
		t.Fatalf("stats = %+v: a bad budget must not count as a run", s)
	}
}

func TestSingleSliceKeepsCallerSeed(t *testing.T) {
	r := &scriptRunner{}
	ex := New(r.run, Policy{Sleep: noSleep})
	if _, err := ex.Run(context.Background(), probeCircuit(), device.IBMQX2(), runOpts(100)); err != nil {
		t.Fatal(err)
	}
	if len(r.seeds) != 1 || r.seeds[0] != 11 {
		t.Fatalf("seeds = %v, want the caller's seed 11 untouched", r.seeds)
	}
}

func TestBackoffBounds(t *testing.T) {
	ex := New(func(ctx context.Context, c *circuit.Circuit, dev *device.Device, opt backend.Options) (*dist.Counts, error) {
		return nil, nil
	}, Policy{})
	for attempt := 2; attempt <= 12; attempt++ {
		cap := time.Duration(50*time.Millisecond) << uint(attempt-2)
		if cap > 2*time.Second || cap <= 0 {
			cap = 2 * time.Second
		}
		for i := 0; i < 50; i++ {
			d := ex.backoff(attempt)
			if d <= 0 || d > cap {
				t.Fatalf("attempt %d: backoff %v outside (0, %v]", attempt, d, cap)
			}
		}
	}
}
