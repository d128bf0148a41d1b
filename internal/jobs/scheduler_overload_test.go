package jobs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"biasmit/internal/overload"
)

// TestWatchdogStallRequeuesJob: an executor that wedges (no progress, no
// return) is cancelled by the watchdog and its job requeued; the fresh
// attempt succeeds. The stall clock is injectable, so no real waiting.
func TestWatchdogStallRequeuesJob(t *testing.T) {
	clock := struct {
		mu sync.Mutex
		t  time.Time
	}{t: time.Unix(1700000000, 0)}
	now := func() time.Time {
		clock.mu.Lock()
		defer clock.mu.Unlock()
		return clock.t
	}
	advance := func(d time.Duration) {
		clock.mu.Lock()
		clock.t = clock.t.Add(d)
		clock.mu.Unlock()
	}

	w := overload.NewWatchdog(time.Second, 10*time.Second, t.Logf)
	w.SetNow(now)
	// No w.Start(): the test drives Sweep by hand against the fake clock.

	q := NewQueue(Options{})
	var mu sync.Mutex
	attempts := 0
	wedged := make(chan struct{})
	s := NewScheduler(q, SchedulerOptions{
		Workers:  1,
		Watchdog: w,
		Exec: func(ctx context.Context, j Job) (json.RawMessage, *Failure) {
			mu.Lock()
			attempts++
			first := attempts == 1
			mu.Unlock()
			if first {
				close(wedged)
				<-ctx.Done() // wedged until the watchdog cuts the context
				return nil, &Failure{Code: "canceled", Message: ctx.Err().Error(), Status: 503}
			}
			return j.Spec.Payload, nil
		},
	})
	j, _ := q.Submit(Spec{Type: "mitigate", Payload: json.RawMessage(`{"seed":1}`)})
	s.Start()
	defer s.Drain(context.Background())

	<-wedged
	waitState(t, q, j.ID, StateRunning)
	advance(11 * time.Second)
	w.Sweep()

	got := waitState(t, q, j.ID, StateDone)
	if got.Requeues != 1 || got.Attempts != 2 {
		t.Fatalf("job = requeues %d attempts %d, want 1 stall requeue then success", got.Requeues, got.Attempts)
	}
	st := q.Stats()
	if st.StallRequeues != 1 {
		t.Fatalf("stats = %+v, want 1 stall requeue", st)
	}
	if ws := w.Stats(); ws.Stalls != 1 {
		t.Fatalf("watchdog stats = %+v, want 1 stall", ws)
	}
}

// TestDeadlineExpiredJobShedsBeforeStart: a job whose propagated
// deadline passed while it sat queued fails typed, without the executor
// ever running.
func TestDeadlineExpiredJobShedsBeforeStart(t *testing.T) {
	q := NewQueue(Options{})
	execCalls := 0
	s := NewScheduler(q, SchedulerOptions{
		Workers: 1,
		Exec: func(ctx context.Context, j Job) (json.RawMessage, *Failure) {
			execCalls++
			return j.Spec.Payload, nil
		},
	})
	past := time.Now().Add(-time.Minute)
	j, _ := q.Submit(Spec{Type: "mitigate", Deadline: &past})
	s.Start()
	defer s.Drain(context.Background())

	got := waitState(t, q, j.ID, StateFailed)
	if got.Failure == nil || got.Failure.Code != "deadline_exceeded" || got.Failure.Status != 504 {
		t.Fatalf("failure = %+v, want typed deadline_exceeded/504", got.Failure)
	}
	if execCalls != 0 {
		t.Fatalf("executor ran %d times for an expired job, want 0", execCalls)
	}
	if st := q.Stats(); st.Expired != 1 {
		t.Fatalf("stats = %+v, want 1 expired", st)
	}
}

// TestDeadlineCapsExecutionContext: a live deadline reaches the
// executor's context so a started job cannot overrun its budget.
func TestDeadlineCapsExecutionContext(t *testing.T) {
	q := NewQueue(Options{})
	gotDeadline := make(chan time.Time, 1)
	s := NewScheduler(q, SchedulerOptions{
		Workers: 1,
		Exec: func(ctx context.Context, j Job) (json.RawMessage, *Failure) {
			if d, ok := ctx.Deadline(); ok {
				gotDeadline <- d
			} else {
				gotDeadline <- time.Time{}
			}
			return j.Spec.Payload, nil
		},
	})
	want := time.Now().Add(time.Hour).Truncate(time.Millisecond)
	j, _ := q.Submit(Spec{Type: "mitigate", Deadline: &want})
	s.Start()
	defer s.Drain(context.Background())
	waitState(t, q, j.ID, StateDone)
	if d := <-gotDeadline; !d.Equal(want) {
		t.Fatalf("executor context deadline = %v, want %v", d, want)
	}
}

// TestOldestQueuedAge: the backlog-staleness gauge /healthz reports.
func TestOldestQueuedAge(t *testing.T) {
	base := time.Unix(1700000000, 0)
	cur := base
	q := NewQueue(Options{Now: func() time.Time { return cur }})
	if _, err := q.Submit(Spec{Type: "mitigate"}); err != nil {
		t.Fatal(err)
	}
	cur = base.Add(3 * time.Second)
	if _, err := q.Submit(Spec{Type: "mitigate"}); err != nil {
		t.Fatal(err)
	}
	cur = base.Add(5 * time.Second)
	if st := q.Stats(); st.OldestQueued != 5*time.Second {
		t.Fatalf("oldest queued = %v, want 5s (the first job's age)", st.OldestQueued)
	}
}
