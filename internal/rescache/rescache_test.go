package rescache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHitMiss is the basic contract: first call computes, second call
// with the same key+generation returns the stored bytes untouched.
func TestHitMiss(t *testing.T) {
	c := New()
	ctx := context.Background()

	var runs atomic.Int64
	compute := func(context.Context) (Computed, error) {
		runs.Add(1)
		return Computed{Value: []byte("result"), Gen: 1, Store: true}, nil
	}

	v, out, err := c.Do(ctx, "k", 1, compute)
	if err != nil || out != Miss || string(v) != "result" {
		t.Fatalf("first Do = %q, %v, %v; want result, miss, nil", v, out, err)
	}
	v, out, err = c.Do(ctx, "k", 1, compute)
	if err != nil || out != Hit || string(v) != "result" {
		t.Fatalf("second Do = %q, %v, %v; want result, hit, nil", v, out, err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != int64(len("result")) {
		t.Fatalf("stats %+v; want 1 hit, 1 miss, 1 entry, %d bytes", st, len("result"))
	}
}

// TestGenerationInvalidation: bumping the profile generation must
// invalidate the dependent entry — the stale bytes are never served.
func TestGenerationInvalidation(t *testing.T) {
	c := New()
	ctx := context.Background()

	mk := func(tag string, g uint64) func(context.Context) (Computed, error) {
		return func(context.Context) (Computed, error) {
			return Computed{Value: []byte(tag), Gen: g, Store: true}, nil
		}
	}

	if v, out, _ := c.Do(ctx, "k", 1, mk("gen1", 1)); out != Miss || string(v) != "gen1" {
		t.Fatalf("gen1 Do = %q, %v", v, out)
	}
	// Same key, new generation: the gen-1 entry must be dropped and
	// the computation re-run.
	v, out, err := c.Do(ctx, "k", 2, mk("gen2", 2))
	if err != nil || out != Miss || string(v) != "gen2" {
		t.Fatalf("gen2 Do = %q, %v, %v; want gen2, miss, nil", v, out, err)
	}
	st := c.Stats()
	if st.Invalidated != 1 {
		t.Fatalf("invalidated = %d, want 1", st.Invalidated)
	}
	// The new generation is now the cached one.
	if v, out, _ := c.Do(ctx, "k", 2, mk("gen2-again", 2)); out != Hit || string(v) != "gen2" {
		t.Fatalf("gen2 re-Do = %q, %v; want cached gen2 hit", v, out)
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != int64(len("gen2")) {
		t.Fatalf("stats %+v; want exactly the gen2 entry accounted", st)
	}
}

// TestCoalescing: N concurrent identical requests run the computation
// exactly once and every waiter receives the identical bytes.
func TestCoalescing(t *testing.T) {
	c := New()
	ctx := context.Background()

	const n = 16
	var runs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func(context.Context) (Computed, error) {
		runs.Add(1)
		close(started)
		<-release
		return Computed{Value: []byte("shared"), Gen: 3, Store: true}, nil
	}

	type res struct {
		v   []byte
		out Outcome
		err error
	}
	results := make(chan res, n)

	// Leader first, so the computation is registered and parked before
	// the followers arrive.
	go func() {
		v, out, err := c.Do(ctx, "k", 3, compute)
		results <- res{v, out, err}
	}()
	<-started
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, out, err := c.Do(ctx, "k", 3, func(context.Context) (Computed, error) {
				t.Error("a coalesced caller ran compute")
				return Computed{}, nil
			})
			results <- res{v, out, err}
		}()
	}
	// Let the followers reach the coalescing point before releasing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := c.Stats(); st.Coalesced == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	var misses, coalesced int
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil || string(r.v) != "shared" {
			t.Fatalf("waiter got %q, %v; want shared, nil", r.v, r.err)
		}
		switch r.out {
		case Miss:
			misses++
		case Coalesced:
			coalesced++
		}
	}
	if misses != 1 || coalesced != n-1 {
		t.Fatalf("outcomes: %d misses, %d coalesced; want 1 and %d", misses, coalesced, n-1)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", got)
	}
	if st := c.Stats(); st.Coalesced != n-1 {
		t.Fatalf("coalesced counter %d, want %d", st.Coalesced, n-1)
	}
}

// TestWaiterCancelDoesNotCancelComputation: a waiter abandoning the
// wait gets its own ctx error; the shared computation runs to
// completion on the detached context and its result is still cached.
func TestWaiterCancelDoesNotCancelComputation(t *testing.T) {
	c := New()

	started := make(chan struct{})
	release := make(chan struct{})
	var sawCancel atomic.Bool
	compute := func(cctx context.Context) (Computed, error) {
		close(started)
		<-release
		if cctx.Err() != nil {
			sawCancel.Store(true)
		}
		return Computed{Value: []byte("survived"), Gen: 1, Store: true}, nil
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, "k", 1, compute)
		leaderDone <- err
	}()
	<-started

	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	cancelWaiter()
	_, out, err := c.Do(waiterCtx, "k", 1, compute)
	if !errors.Is(err, context.Canceled) || out != Coalesced {
		t.Fatalf("canceled waiter got %v, %v; want context.Canceled, coalesced", out, err)
	}

	// Even the leader hanging up must not kill the computation.
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader got %v; want context.Canceled", err)
	}
	close(release)

	// The detached computation finishes and stores; a fresh caller
	// gets a hit without recomputing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, out, err := c.Do(context.Background(), "k", 1, func(context.Context) (Computed, error) {
			return Computed{Value: []byte("recomputed"), Gen: 1, Store: true}, nil
		})
		if err != nil {
			t.Fatalf("post-cancel Do: %v", err)
		}
		if out == Hit {
			if string(v) != "survived" {
				t.Fatalf("cached value %q, want the detached computation's %q", v, "survived")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("detached computation's result never became a hit")
		}
		time.Sleep(time.Millisecond)
	}
	if sawCancel.Load() {
		t.Fatal("the detached computation observed a canceled context")
	}
}

// TestErrorsNotCached: a failed computation fans its error out and
// leaves nothing behind; the next call retries.
func TestErrorsNotCached(t *testing.T) {
	c := New()
	ctx := context.Background()

	boom := errors.New("boom")
	_, out, err := c.Do(ctx, "k", 1, func(context.Context) (Computed, error) {
		return Computed{}, boom
	})
	if !errors.Is(err, boom) || out != Miss {
		t.Fatalf("failing Do = %v, %v; want boom, miss", out, err)
	}
	v, out, err := c.Do(ctx, "k", 1, func(context.Context) (Computed, error) {
		return Computed{Value: []byte("ok"), Gen: 1, Store: true}, nil
	})
	if err != nil || out != Miss || string(v) != "ok" {
		t.Fatalf("retry Do = %q, %v, %v; want ok, miss, nil", v, out, err)
	}
	st := c.Stats()
	if st.Errors != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v; want 1 error and only the retry's entry", st)
	}
}

// TestComputePanicBecomesError: a panicking computation must not crash
// the process (it runs on a bare goroutine) — waiters get an error.
func TestComputePanicBecomesError(t *testing.T) {
	c := New()
	_, out, err := c.Do(context.Background(), "k", 1, func(context.Context) (Computed, error) {
		panic("kaboom")
	})
	if err == nil || out != Miss {
		t.Fatalf("panicking Do = %v, %v; want error, miss", out, err)
	}
	if st := c.Stats(); st.Errors != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v; want 1 error, nothing cached", st)
	}
}

// TestStoreFalseFansOutWithoutCaching: responses flagged store=false
// (e.g. stale-profile serving) reach every waiter but are never cached.
func TestStoreFalseFansOutWithoutCaching(t *testing.T) {
	c := New()
	ctx := context.Background()

	v, out, err := c.Do(ctx, "k", 1, func(context.Context) (Computed, error) {
		return Computed{Value: []byte("degraded"), Gen: 1, Store: false}, nil
	})
	if err != nil || out != Miss || string(v) != "degraded" {
		t.Fatalf("store=false Do = %q, %v, %v", v, out, err)
	}
	// Nothing cached: the next call misses again.
	_, out, _ = c.Do(ctx, "k", 1, func(context.Context) (Computed, error) {
		return Computed{Value: []byte("fresh"), Gen: 1, Store: true}, nil
	})
	if out != Miss {
		t.Fatalf("second Do outcome %v, want miss (store=false must not cache)", out)
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Fatalf("stats %+v; want 2 misses and only the stored entry", st)
	}
}

// TestLRUEviction: the entry bound holds, victims are least recently
// used, and the byte gauge tracks exactly the stored payloads.
func TestLRUEviction(t *testing.T) {
	c := newWithLimit(3)
	ctx := context.Background()

	put := func(key, val string) {
		t.Helper()
		_, _, err := c.Do(ctx, key, 1, func(context.Context) (Computed, error) {
			return Computed{Value: []byte(val), Gen: 1, Store: true}, nil
		})
		if err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	put("a", "aa")
	put("b", "bb")
	put("c", "cc")
	// Touch a so b becomes the LRU victim.
	if _, out, _ := c.Do(ctx, "a", 1, nil); out != Hit {
		t.Fatalf("touch a: outcome %v, want hit", out)
	}
	put("d", "dd")

	st := c.Stats()
	if st.Evicted != 1 || st.Entries != 3 || st.Bytes != 6 {
		t.Fatalf("stats %+v; want 1 eviction, 3 entries, 6 bytes", st)
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, out, _ := c.Do(ctx, k, 1, nil); out != Hit {
			t.Fatalf("%s outcome %v, want hit (should have survived eviction)", k, out)
		}
	}
	// Probe b with store=false so the probe itself cannot evict.
	if _, out, _ := c.Do(ctx, "b", 1, func(context.Context) (Computed, error) {
		return Computed{Value: []byte("bb"), Gen: 1, Store: false}, nil
	}); out != Miss {
		t.Fatalf("b outcome %v, want miss (b was the LRU victim)", out)
	}
}

// TestStoreUnderNewerGeneration: a computation may publish the very
// profile it is keyed on (a cold-start AIM request characterizing
// in-line bumps generation 0 → 1 mid-run) and reports the consumed
// generation back via Computed.Gen. The entry must land under that
// newer generation so the next lookup — which reads the bumped
// generation — hits instead of finding a stillborn gen-0 entry.
func TestStoreUnderNewerGeneration(t *testing.T) {
	c := New()
	ctx := context.Background()

	var runs atomic.Int64
	v, out, err := c.Do(ctx, "k", 0, func(context.Context) (Computed, error) {
		runs.Add(1)
		return Computed{Value: []byte("cold"), Gen: 1, Store: true}, nil
	})
	if err != nil || out != Miss || string(v) != "cold" {
		t.Fatalf("cold Do = %q, %v, %v; want cold, miss, nil", v, out, err)
	}
	// The next caller sees the bumped generation and must hit.
	v, out, err = c.Do(ctx, "k", 1, func(context.Context) (Computed, error) {
		runs.Add(1)
		return Computed{Value: []byte("warm"), Gen: 1, Store: true}, nil
	})
	if err != nil || out != Hit || string(v) != "cold" {
		t.Fatalf("warm Do = %q, %v, %v; want cached cold bytes, hit, nil", v, out, err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	// A straggler still reading generation 0 invalidates and recomputes
	// rather than being served the newer-generation bytes as a gen-0
	// hit; its recompute reports the current generation again, so the
	// entry it stores does not clobber anything newer.
	_, out, _ = c.Do(ctx, "k", 0, func(context.Context) (Computed, error) {
		return Computed{Value: []byte("straggler"), Gen: 1, Store: true}, nil
	})
	if out != Miss {
		t.Fatalf("straggler outcome %v, want miss (gen mismatch invalidates)", out)
	}
}

// TestConcurrentHitMissInvalidate hammers one cache from many
// goroutines mixing hits, misses, and invalidations by a bumped
// generation — the way a profile republish reaches the cache. Run
// under -race; correctness assertion: a caller at generation g only
// ever observes bytes computed for generation g.
func TestConcurrentHitMissInvalidate(t *testing.T) {
	c := newWithLimit(8)
	ctx := context.Background()

	var gen atomic.Uint64
	gen.Store(1)

	const workers = 8
	const iters = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", i%12)
				g := gen.Load()
				if i%7 == 5 {
					// Invalidate: every entry stored under an older
					// generation is dropped by its next lookup.
					g = gen.Add(1)
				}
				want := fmt.Sprintf("%s@%d", key, g)
				v, _, err := c.Do(ctx, key, g, func(context.Context) (Computed, error) {
					return Computed{Value: []byte(want), Gen: g, Store: true}, nil
				})
				if err != nil {
					t.Errorf("Do(%s, %d): %v", key, g, err)
					return
				}
				// The generation check is the staleness contract: bytes
				// from another generation must never leak through, no
				// matter the interleaving.
				if string(v) != want {
					t.Errorf("Do(%s, %d) = %q, want %q", key, g, v, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if st.Entries > 8 {
		t.Fatalf("entries %d exceed the bound 8", st.Entries)
	}
	if st.Misses == 0 {
		t.Fatalf("degenerate run: %+v (the storm never missed)", st)
	}
	// Whether the storm itself produced hits and invalidations is
	// timing-dependent (gen churn plus eviction pressure can starve
	// them), so prove both paths deterministically now that the storm
	// is over.
	g := gen.Load()
	probe := func(g uint64) func(context.Context) (Computed, error) {
		return func(context.Context) (Computed, error) {
			return Computed{Value: []byte("probe"), Gen: g, Store: true}, nil
		}
	}
	if _, out, _ := c.Do(ctx, "post-storm", g, probe(g)); out != Miss {
		t.Fatalf("post-storm first Do outcome %v, want miss", out)
	}
	if _, out, _ := c.Do(ctx, "post-storm", g, probe(g)); out != Hit {
		t.Fatalf("post-storm second Do outcome %v, want hit", out)
	}
	before := c.Stats().Invalidated
	if _, out, _ := c.Do(ctx, "post-storm", g+1, probe(g+1)); out != Miss {
		t.Fatalf("post-storm Do at a bumped generation: outcome %v, want miss", out)
	}
	if n := c.Stats().Invalidated - before; n != 1 {
		t.Fatalf("bumped generation invalidated %d entries, want 1", n)
	}
}

// TestHashKey: equal values hash equal, different values differ, and
// field order is fixed by declaration so the digest is stable.
func TestHashKey(t *testing.T) {
	type key struct {
		Machine string
		Shots   int
	}
	a, err := HashKey(key{"ibmqx4", 1024})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := HashKey(key{"ibmqx4", 1024})
	if a != b {
		t.Fatalf("equal values hashed %s vs %s", a, b)
	}
	d, _ := HashKey(key{"ibmqx4", 2048})
	if a == d {
		t.Fatal("different shot budgets collided")
	}
	if len(a) != 64 {
		t.Fatalf("digest %q is not hex sha256", a)
	}
	if _, err := HashKey(func() {}); err == nil {
		t.Fatal("unmarshalable value must error, not silently collide")
	}
}
