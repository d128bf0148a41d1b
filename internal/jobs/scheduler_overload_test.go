package jobs

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

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
