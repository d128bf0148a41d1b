package orchestrate

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderAndValues(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	got, err := Map(context.Background(), 8, items, func(_ context.Context, i, item int) (int, error) {
		return item * item, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapMatchesSequentialAtEveryWorkerCount(t *testing.T) {
	items := []int{3, 1, 4, 1, 5, 9, 2, 6}
	f := func(_ context.Context, i, item int) (int64, error) {
		return DeriveSeed(int64(item), i), nil
	}
	want, err := Map(context.Background(), 1, items, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 16} {
		got, err := Map(context.Background(), workers, items, f)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d result[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	later := errors.New("later")
	gate := make(chan struct{})
	_, err := Map(context.Background(), 2, []int{0, 1}, func(_ context.Context, i, _ int) (int, error) {
		if i == 0 {
			defer close(gate) // job 1 errors strictly after job 0
			return 0, boom
		}
		<-gate
		time.Sleep(10 * time.Millisecond)
		return 0, later
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want first error %v", err, boom)
	}
}

func TestMapErrorSkipsRemainingJobs(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	_, err := Map(context.Background(), 1, make([]int, 50), func(_ context.Context, i, _ int) (int, error) {
		ran.Add(1)
		if i == 4 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// With one worker, nothing after the failing job should execute.
	if n := ran.Load(); n != 5 {
		t.Fatalf("ran %d jobs, want 5", n)
	}
}

func TestMapCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	var finished atomic.Int64
	done := make(chan error, 1)
	go func() {
		_, err := Map(ctx, 2, make([]int, 64), func(jctx context.Context, i, _ int) (int, error) {
			started <- struct{}{}
			select {
			case <-jctx.Done():
				return 0, jctx.Err()
			case <-time.After(5 * time.Second):
				finished.Add(1)
				return i, nil
			}
		})
		done <- err
	}()
	<-started // at least one job is in flight
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Map did not return after cancellation")
	}
	if finished.Load() != 0 {
		t.Fatalf("%d jobs ran to completion despite cancellation", finished.Load())
	}
}

func TestMapPanicSurfacesAsError(t *testing.T) {
	_, err := Map(context.Background(), 4, make([]int, 8), func(_ context.Context, i, _ int) (int, error) {
		if i == 3 {
			panic("job exploded")
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if fmt.Sprint(pe.Value) != "job exploded" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if !strings.Contains(pe.Error(), "job exploded") || len(pe.Stack) == 0 {
		t.Fatalf("panic error missing context: %v", pe)
	}
}

func TestMapEmptyAndSingleItem(t *testing.T) {
	if got, err := Map(context.Background(), 4, nil, func(_ context.Context, i, item int) (int, error) {
		return item, nil
	}); err != nil || len(got) != 0 {
		t.Fatalf("empty map: %v, %v", got, err)
	}
	got, err := Map(context.Background(), 4, []int{7}, func(_ context.Context, _, item int) (int, error) {
		return item + 1, nil
	})
	if err != nil || got[0] != 8 {
		t.Fatalf("single item: %v, %v", got, err)
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := map[int64]bool{}
	for stream := 0; stream < 1000; stream++ {
		s := DeriveSeed(12345, stream)
		if s < 0 {
			t.Fatalf("seed %d negative", s)
		}
		if seen[s] {
			t.Fatalf("stream %d collides", stream)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) != DeriveSeed(1, 0) {
		t.Fatal("DeriveSeed not deterministic")
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("DeriveSeed ignores the base seed")
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honoured")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("default worker count must be at least 1")
	}
}
