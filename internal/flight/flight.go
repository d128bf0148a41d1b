// Package flight runs at most one computation per key at a time and
// hands its result to every caller that asked for the key meanwhile —
// the singleflight the profile store and the result cache share.
//
// A flight belongs to no single caller. Its computation runs on its own
// goroutine under context.WithoutCancel of the starter's context: the
// request-scoped values (trace, priority class) carry over, the
// starter's cancellation and deadline do not, so a caller that hangs up
// abandons only its own wait, never the result the other callers are
// blocked on. A panic in the computation becomes its error. Each caller
// waits on its own context.
//
// Owners that cache results publish them in the settle hook, which runs
// before the flight retires. A caller that, under the owner's lock,
// checks the owner's cache and then the group therefore always finds
// the published result or the flight producing it — never neither, so a
// burst of callers never starts a second computation.
package flight

import (
	"context"
	"fmt"
	"sync"
)

// Call is one in-flight computation.
type Call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Wait blocks until the computation finishes or ctx ends. The
// computation keeps running either way.
func (c *Call[V]) Wait(ctx context.Context) (V, error) {
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// Group is a set of in-flight computations keyed by K. The zero value
// is ready to use; all methods are safe for concurrent use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*Call[V]
}

// Busy reports whether key has a computation in flight.
func (g *Group[K, V]) Busy(key K) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.calls[key]
	return ok
}

// Do joins key's in-flight computation, or starts fn as a new one, and
// returns the call to wait on; joined reports which. When fn returns,
// settle receives its result and returns what every caller sees; the
// flight retires only after settle returns.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error), settle func(V, error) (V, error)) (c *Call[V], joined bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c, true
	}
	if g.calls == nil {
		g.calls = make(map[K]*Call[V])
	}
	c = &Call[V]{done: make(chan struct{})}
	g.calls[key] = c
	go func() {
		c.val, c.err = settle(run(context.WithoutCancel(ctx), fn))
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	return c, false
}

// run calls fn, converting a panic into an error: the computation runs
// on a bare goroutine, where a panic would crash the process with no
// net/http recovery in between.
func run[V any](ctx context.Context, fn func(context.Context) (V, error)) (v V, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("flight: computation panicked: %v", r)
		}
	}()
	return fn(ctx)
}
