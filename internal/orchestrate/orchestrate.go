// Package orchestrate provides the bounded worker-pool job runner used
// by every embarrassingly parallel stage of the pipeline: brute-force
// RBMS profiling (one job per basis state), SIM/AIM inversion groups,
// AWCT windows, and the experiment drivers' benchmark × policy cells.
//
// The scheduling contract is that parallel execution is invisible in the
// results: callers derive every job's seed from (base seed, job index)
// before submission, each job runs its trial loop sequentially with its
// own RNG, and results land in index-addressed slots. A run with N
// workers is therefore bit-identical to a sequential run at the same
// seed — only wall-clock changes. Cancellation flows through a
// context.Context: the first job error (or a parent cancellation) stops
// new work, and Map reports that first error. Panics inside jobs are
// captured and surfaced as *PanicError instead of killing the process.
package orchestrate

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Workers resolves a worker-count setting: values above zero are taken
// as-is, anything else selects GOMAXPROCS (use 1 to force sequential
// execution).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError wraps a panic recovered from a job so the failure surfaces
// as an ordinary error on the submitting goroutine, with the worker's
// stack preserved for diagnosis.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("orchestrate: job panicked: %v\n%s", e.Value, e.Stack)
}

// DeriveSeed splits a base seed into decorrelated per-job streams with a
// splitmix64 step, so a pool of jobs stays a pure function of the
// caller's seed. Stream indices need not be contiguous.
func DeriveSeed(seed int64, stream int) int64 {
	x := uint64(seed) + 0x9E3779B97F4A7C15*uint64(stream+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x & (1<<63 - 1))
}

// Map applies f to every item on at most Workers(workers) goroutines and
// returns the results in input order. f receives the item's index so it
// can derive a per-job seed (DeriveSeed) and write-free callers can
// label work. On failure Map returns the first error (job error, panic,
// or context cancellation); result slots whose jobs did not complete are
// left as zero values.
func Map[T, R any](ctx context.Context, workers int, items []T, f func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, ctx.Err()
	}
	workers = Workers(workers)
	if workers > len(items) {
		workers = len(items)
	}

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	report := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := pctx.Err(); err != nil {
					report(err)
					continue // drain so the feeder can finish
				}
				r, err := protectMap(pctx, i, items[i], f)
				if err != nil {
					report(err)
					continue
				}
				results[i] = r
			}
		}()
	}
	for i := range items {
		idx <- i
	}
	close(idx)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return results, firstErr
}

// protectMap runs one Map job with panic capture.
func protectMap[T, R any](ctx context.Context, i int, item T, f func(ctx context.Context, i int, item T) (R, error)) (r R, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &PanicError{Value: rec, Stack: debug.Stack()}
		}
	}()
	return f(ctx, i, item)
}
