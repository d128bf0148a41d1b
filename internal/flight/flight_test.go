package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func identity(v int, err error) (int, error) { return v, err }

// TestDoSharesOneComputation: concurrent callers of one key share a
// single run of fn and all see its result.
func TestDoSharesOneComputation(t *testing.T) {
	var g Group[string, int]
	var runs atomic.Int64
	release := make(chan struct{})
	fn := func(context.Context) (int, error) {
		runs.Add(1)
		<-release
		return 42, nil
	}
	const callers = 16
	calls := make([]*Call[int], callers)
	joined := 0
	for i := range calls {
		var j bool
		calls[i], j = g.Do(context.Background(), "k", fn, identity)
		if j {
			joined++
		}
	}
	if joined != callers-1 {
		t.Fatalf("%d callers joined, want %d", joined, callers-1)
	}
	if !g.Busy("k") || g.Busy("other") {
		t.Fatal("Busy does not track the flight")
	}
	close(release)
	for _, c := range calls {
		if v, err := c.Wait(context.Background()); v != 42 || err != nil {
			t.Fatalf("Wait = %d, %v; want 42, nil", v, err)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	if g.Busy("k") {
		t.Fatal("finished flight still busy")
	}
}

type ctxKey struct{}

// TestStarterCancelDoesNotCancelFlight: the computation keeps the
// starter's context values but not its cancellation or deadline, so
// the starter giving up fails only its own wait.
func TestStarterCancelDoesNotCancelFlight(t *testing.T) {
	var g Group[string, string]
	release := make(chan struct{})
	fn := func(ctx context.Context) (string, error) {
		<-release
		if _, ok := ctx.Deadline(); ok {
			return "", errors.New("flight inherited the starter's deadline")
		}
		if err := ctx.Err(); err != nil {
			return "", err
		}
		v, _ := ctx.Value(ctxKey{}).(string)
		return v, nil
	}
	settle := func(v string, err error) (string, error) { return v, err }
	ctx, cancel := context.WithTimeout(context.WithValue(context.Background(), ctxKey{}, "trace"), time.Hour)
	starter, _ := g.Do(ctx, "k", fn, settle)
	waiter, _ := g.Do(context.Background(), "k", fn, settle)
	cancel()
	if _, err := starter.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("starter Wait err = %v, want its own context.Canceled", err)
	}
	close(release)
	if v, err := waiter.Wait(context.Background()); v != "trace" || err != nil {
		t.Fatalf("waiter got %q, %v; want the starter's value, nil", v, err)
	}
}

// TestPanicBecomesError: a panicking computation fails its callers and
// retires, so the next call starts afresh.
func TestPanicBecomesError(t *testing.T) {
	var g Group[string, int]
	c, _ := g.Do(context.Background(), "k", func(context.Context) (int, error) { panic("boom") }, identity)
	if _, err := c.Wait(context.Background()); err == nil {
		t.Fatal("panicking computation returned no error")
	}
	c, joined := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 7, nil }, identity)
	if joined {
		t.Fatal("call after a panic joined the dead flight")
	}
	if v, err := c.Wait(context.Background()); v != 7 || err != nil {
		t.Fatalf("Wait = %d, %v; want 7, nil", v, err)
	}
}

// TestSettleRunsBeforeRetire: settle sees the flight still in the group
// and its return is what every caller gets — the ordering owners rely
// on to publish a result before a new caller can miss both.
func TestSettleRunsBeforeRetire(t *testing.T) {
	var g Group[string, int]
	var mu sync.Mutex
	busyInSettle := false
	c, _ := g.Do(context.Background(), "k",
		func(context.Context) (int, error) { return 1, nil },
		func(v int, err error) (int, error) {
			mu.Lock()
			busyInSettle = g.Busy("k")
			mu.Unlock()
			return v + 1, err
		})
	if v, err := c.Wait(context.Background()); v != 2 || err != nil {
		t.Fatalf("Wait = %d, %v; want settle's 2, nil", v, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !busyInSettle {
		t.Fatal("flight retired before settle ran")
	}
	if g.Busy("k") {
		t.Fatal("flight still busy after its callers were released")
	}
}
