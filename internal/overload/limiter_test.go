package overload

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestLimiterAdmitsUnderLimit(t *testing.T) {
	l := NewLimiter(LimiterConfig{Limit: 2})
	ctx := context.Background()
	r1, err := l.Acquire(ctx, ClassMitigate)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	r2, err := l.Acquire(ctx, ClassMitigate)
	if err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	if got := l.Stats().Inflight; got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
	r1()
	r1() // release is once-only
	r2()
	if got := l.Stats().Inflight; got != 0 {
		t.Fatalf("inflight after release = %d, want 0", got)
	}
}

func TestLimiterQueueTimeoutSheds(t *testing.T) {
	fire := make(chan time.Time)
	l := NewLimiter(LimiterConfig{
		Limit:        1,
		QueueTimeout: 100 * time.Millisecond,
		MaxQueue:     64,
		After:        func(time.Duration) <-chan time.Time { return fire },
	})
	hold, err := l.Acquire(context.Background(), ClassMitigate)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	defer hold()

	errc := make(chan error, 1)
	go func() {
		_, err := l.Acquire(context.Background(), ClassMitigate)
		errc <- err
	}()
	waitQueued(t, l, 1)
	fire <- time.Time{}

	err = <-errc
	var oe *Error
	if !errors.As(err, &oe) {
		t.Fatalf("queued acquire: got %v (%T), want *overload.Error", err, err)
	}
	if oe.Reason != "queue_timeout" || oe.RetryAfter <= 0 {
		t.Fatalf("shed error = %+v, want queue_timeout with Retry-After", oe)
	}
	if s := l.Stats(); s.Timeouts[ClassMitigate] != 1 || s.Queued != 0 {
		t.Fatalf("stats = %+v, want one mitigate timeout and empty queue", s)
	}
}

func TestLimiterAdmitsHighestClassFirst(t *testing.T) {
	l := NewLimiter(LimiterConfig{Limit: 1})
	hold, err := l.Acquire(context.Background(), ClassMitigate)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}

	order := make(chan Class, 2)
	var wg sync.WaitGroup
	enqueue := func(c Class) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := l.Acquire(context.Background(), c)
			if err != nil {
				t.Errorf("class %s acquire: %v", c, err)
				return
			}
			order <- c
			release()
		}()
	}
	enqueue(ClassJobs)
	waitQueued(t, l, 1)
	enqueue(ClassCharacterize)
	waitQueued(t, l, 2)

	hold()
	wg.Wait()
	if first := <-order; first != ClassCharacterize {
		t.Fatalf("first admitted class = %s, want characterize (jobs shed first, characterize served first)", first)
	}
}

func TestLimiterEvictsLowerClassWhenFull(t *testing.T) {
	l := NewLimiter(LimiterConfig{Limit: 1, MaxQueue: 1})
	hold, err := l.Acquire(context.Background(), ClassMitigate)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}

	mitigateErr := make(chan error, 1)
	go func() {
		_, err := l.Acquire(context.Background(), ClassMitigate)
		mitigateErr <- err
	}()
	waitQueued(t, l, 1)

	// Queue is full; a characterize arrival must displace the queued
	// mitigate request.
	charDone := make(chan error, 1)
	go func() {
		release, err := l.Acquire(context.Background(), ClassCharacterize)
		if err == nil {
			defer release()
		}
		charDone <- err
	}()

	err = <-mitigateErr
	var oe *Error
	if !errors.As(err, &oe) || oe.Reason != "queue_full" {
		t.Fatalf("evicted mitigate: got %v, want overloaded queue_full", err)
	}

	hold()
	if err := <-charDone; err != nil {
		t.Fatalf("characterize after eviction: %v", err)
	}
	if s := l.Stats(); s.Evictions != 1 || s.Shed[ClassMitigate] != 1 {
		t.Fatalf("stats = %+v, want one eviction charged to mitigate", s)
	}

}

func TestLimiterShedsSameClassWhenFull(t *testing.T) {
	l := NewLimiter(LimiterConfig{Limit: 1, MaxQueue: 1})
	hold, err := l.Acquire(context.Background(), ClassCharacterize)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	queued := make(chan error, 1)
	go func() {
		release, err := l.Acquire(context.Background(), ClassCharacterize)
		if err == nil {
			release()
		}
		queued <- err
	}()
	waitQueued(t, l, 1)

	// Same class cannot evict an equal: shed outright, synchronously.
	_, err = l.Acquire(context.Background(), ClassCharacterize)
	var oe *Error
	if !errors.As(err, &oe) || oe.Reason != "queue_full" {
		t.Fatalf("full-queue acquire: got %v, want overloaded queue_full", err)
	}
	hold()
	if err := <-queued; err != nil {
		t.Fatalf("queued characterize after release: %v", err)
	}
}

// TestLimiterNeverShedsJobs: a ClassJobs waiter outlives the queue
// timeout and a full queue, is never evicted by a higher class, and is
// admitted once the slot frees, while the interactive waiters around it
// are still shed.
func TestLimiterNeverShedsJobs(t *testing.T) {
	expired := make(chan time.Time) // closing it fires every queue timeout
	l := NewLimiter(LimiterConfig{
		Limit:        1,
		QueueTimeout: time.Millisecond,
		MaxQueue:     1,
		After:        func(time.Duration) <-chan time.Time { return expired },
	})
	hold, err := l.Acquire(context.Background(), ClassMitigate)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}

	// Two job waiters: the second finds the one-waiter queue full.
	jobErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			release, err := l.Acquire(context.Background(), ClassJobs)
			if err == nil {
				release()
			}
			jobErr <- err
		}()
	}
	waitQueued(t, l, 2)

	// Interactive waiters are still bounded and shed: a mitigate waiter
	// fills the queue, and a characterize arrival evicts it, not a job.
	mitigateErr := make(chan error, 1)
	go func() {
		_, err := l.Acquire(context.Background(), ClassMitigate)
		mitigateErr <- err
	}()
	waitQueued(t, l, 3)
	charErr := make(chan error, 1)
	go func() {
		_, err := l.Acquire(context.Background(), ClassCharacterize)
		charErr <- err
	}()
	var oe *Error
	if err := <-mitigateErr; !errors.As(err, &oe) || oe.Reason != "queue_full" {
		t.Fatalf("mitigate waiter: got %v, want evicted with queue_full", err)
	}
	waitQueued(t, l, 3)

	// Every queue timeout fires: the characterize waiter is shed, the
	// job waiters keep waiting.
	close(expired)
	if err := <-charErr; !errors.As(err, &oe) || oe.Reason != "queue_timeout" {
		t.Fatalf("characterize waiter: got %v, want queue_timeout", err)
	}
	s := l.Stats()
	if s.Queued != 2 || s.Shed[ClassJobs] != 0 || s.Timeouts[ClassJobs] != 0 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want both jobs still queued and none shed", s)
	}

	hold()
	for i := 0; i < 2; i++ {
		if err := <-jobErr; err != nil {
			t.Fatalf("job waiter after the slot freed: %v", err)
		}
	}
	if s := l.Stats(); s.Admitted[ClassJobs] != 2 || s.Inflight != 0 {
		t.Fatalf("stats = %+v, want both jobs admitted and the slot free", s)
	}
}

func TestLimiterContextCancelWhileQueued(t *testing.T) {
	l := NewLimiter(LimiterConfig{Limit: 1})
	hold, err := l.Acquire(context.Background(), ClassMitigate)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	defer hold()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := l.Acquire(ctx, ClassMitigate)
		errc <- err
	}()
	waitQueued(t, l, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire: %v, want context.Canceled", err)
	}
	if got := l.Stats().Queued; got != 0 {
		t.Fatalf("queued after cancel = %d, want 0", got)
	}
}

func TestLimiterConcurrentStress(t *testing.T) {
	l := NewLimiter(LimiterConfig{Limit: 4, QueueTimeout: 50 * time.Millisecond, MaxQueue: 64})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(class Class) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				release, err := l.Acquire(context.Background(), class)
				if err != nil {
					var oe *Error
					if !errors.As(err, &oe) {
						t.Errorf("acquire: %v", err)
					}
					continue
				}
				release()
			}
		}(Class(g % numClasses))
	}
	wg.Wait()
	if got := l.Stats().Inflight; got != 0 {
		t.Fatalf("inflight after stress = %d, want 0", got)
	}
	if got := l.Stats().Queued; got != 0 {
		t.Fatalf("queued after stress = %d, want 0", got)
	}
}

// waitQueued polls until the limiter reports n queued waiters.
func waitQueued(t *testing.T, l *Limiter, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if l.Stats().Queued == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached %d waiters (stats %+v)", n, l.Stats())
}
