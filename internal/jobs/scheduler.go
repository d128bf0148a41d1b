package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"biasmit/internal/overload"
)

// ExecFunc executes one job and returns its result or failure. It must
// honour ctx (cancellation, drain) and be deterministic for a given
// spec — crash recovery re-runs interrupted jobs and promises the same
// bytes. The job argument is a snapshot; mutating it has no effect.
type ExecFunc func(ctx context.Context, job Job) (json.RawMessage, *Failure)

// SchedulerOptions tunes a Scheduler.
type SchedulerOptions struct {
	// Exec executes jobs (required).
	Exec ExecFunc
	// Workers bounds concurrently executing jobs (default 2).
	Workers int
	// Watchdog, when set, watches every executing job. A job still
	// running past the watchdog's stall threshold gets a goroutine dump
	// logged and its context cancelled, and is requeued once the
	// executor returns — the self-healing path for runs wedged on a gray
	// backend. Nil disables watching.
	Watchdog *overload.Watchdog
	// Now and After override the clock, for tests.
	Now   func() time.Time
	After func(d time.Duration) <-chan time.Time
}

func (o SchedulerOptions) withDefaults() SchedulerOptions {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.After == nil {
		o.After = time.After
	}
	return o
}

// DrainResult reports what a drain accomplished.
type DrainResult struct {
	// Finished is how many running jobs reached a terminal state during
	// the drain; Requeued how many were checkpointed back to queued for
	// the next boot.
	Finished int
	Requeued int
}

// Scheduler drains a Queue into a bounded worker set. Construct with
// NewScheduler, call Start once, and Drain on shutdown.
type Scheduler struct {
	q    *Queue
	opts SchedulerOptions

	dispatchCtx  context.Context
	stopDispatch context.CancelFunc
	slots        chan struct{}  // worker backpressure: dispatch picks only when a worker is free
	wg           sync.WaitGroup // executing jobs
	dispatcherWG sync.WaitGroup

	mu       sync.Mutex
	draining bool
	started  bool
}

// NewScheduler wires a scheduler to a queue.
func NewScheduler(q *Queue, opts SchedulerOptions) *Scheduler {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Scheduler{
		q:            q,
		opts:         opts,
		dispatchCtx:  ctx,
		stopDispatch: cancel,
		slots:        make(chan struct{}, opts.Workers),
	}
}

// Start launches the dispatcher. Idempotent.
func (s *Scheduler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	s.dispatcherWG.Add(1)
	go func() {
		defer s.dispatcherWG.Done()
		s.dispatch()
	}()
}

func (s *Scheduler) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// dispatch is the scheduler loop: hold a worker slot, start the next
// job under the fairness policy, and run it on its own goroutine, which
// gives the slot back when the job settles.
func (s *Scheduler) dispatch() {
	for {
		// Hold a worker slot before picking: scheduling decisions (tenant
		// turn, priority) are made against the live queue as workers free
		// up, and jobs execute in pick order.
		select {
		case <-s.dispatchCtx.Done():
			return
		case s.slots <- struct{}{}:
		}
		e, wait := s.startNext()
		if e == nil {
			<-s.slots
			var timer <-chan time.Time
			if wait > 0 {
				timer = s.opts.After(wait)
			}
			select {
			case <-s.dispatchCtx.Done():
				return
			case <-s.q.notifyCh:
			case <-timer:
			}
			continue
		}
		s.wg.Add(1)
		go func() {
			defer func() { <-s.slots }()
			defer s.wg.Done()
			s.run(e)
		}()
	}
}

// execution is one job the dispatcher moved to running: the live job,
// the snapshot handed to the executor (taken under q.mu — Cancel may
// write to the live job while it runs), and its execution context.
type execution struct {
	j      *Job
	snap   Job
	ctx    context.Context
	cancel context.CancelFunc
}

// startNext picks the next job and moves it to running in one q.mu
// critical section, so a job is always either pending or running and
// Cancel never meets one in between. Jobs whose propagated deadline
// passed while they sat queued are shed on the way. Returns (nil, wait)
// when nothing is dispatchable: wait > 0 means a retry-delayed job
// becomes ready then.
func (s *Scheduler) startNext() (*execution, time.Duration) {
	q := s.q
	q.mu.Lock()
	defer q.mu.Unlock()
	now := s.opts.Now()
	for {
		j, wait := q.nextLocked(now)
		if j == nil {
			return nil, wait
		}
		q.removePendingLocked(j)
		if j.Spec.Deadline != nil && now.After(*j.Spec.Deadline) {
			// The propagated deadline expired while the job sat queued:
			// whoever asked has given up, so running it now is pure
			// waste. Shed it as the typed failure the sync path returns.
			q.expired++
			q.terminalLocked(j, StateFailed, nil, &Failure{
				Code:    "deadline_exceeded",
				Message: "job deadline expired before execution started",
				Status:  504,
			})
			continue
		}
		j.State = StateRunning
		j.StartedAt = now
		j.Attempts++
		var ctx context.Context
		if j.Spec.Deadline != nil {
			// The execution budget is the remaining propagated deadline.
			ctx, j.cancel = context.WithDeadline(context.Background(), *j.Spec.Deadline)
		} else {
			ctx, j.cancel = context.WithCancel(context.Background())
		}
		q.transitions[StateRunning]++
		q.journalLocked(j)
		return &execution{j: j, snap: j.clone(), ctx: ctx, cancel: j.cancel}, 0
	}
}

// nextLocked picks the next dispatchable job. Tenants take turns: the
// first tenant after the one served last, in name order and wrapping
// around, that has a ready job. Within the tenant the highest priority
// class goes first, then FIFO. Returns (nil, wait) when no job is
// ready; wait > 0 is when the soonest retry-delayed job becomes ready.
func (q *Queue) nextLocked(now time.Time) (*Job, time.Duration) {
	var (
		pick    string
		lead    *Job
		soonest time.Duration
	)
	for tenant, list := range q.pending {
		var best *Job
		for _, j := range list {
			if !j.notBefore.IsZero() && j.notBefore.After(now) {
				if d := j.notBefore.Sub(now); soonest == 0 || d < soonest {
					soonest = d
				}
				continue
			}
			if best == nil || j.Spec.Priority > best.Spec.Priority {
				best = j
			}
		}
		if best != nil && (lead == nil || turnBefore(tenant, pick, q.lastTenant)) {
			pick, lead = tenant, best
		}
	}
	if lead == nil {
		return nil, soonest
	}
	q.lastTenant = pick
	return lead, 0
}

// turnBefore reports whether tenant a's turn comes before tenant b's
// when last was served most recently: tenants after last in name order
// come first, then the rest from the start.
func turnBefore(a, b, last string) bool {
	if (a > last) != (b > last) {
		return a > last
	}
	return a < b
}

// run executes one started job and settles its outcome. Every run is
// bounded by its context, so the watchdog task covering the whole
// execution only fires on a wedged one: it marks the job stalled and
// cuts its context, and settle requeues it.
func (s *Scheduler) run(e *execution) {
	// Release the deadline timer (terminalLocked/requeueLocked only drop
	// the reference).
	defer e.cancel()
	task := s.opts.Watchdog.Register("job "+e.snap.ID, func() {
		s.q.mu.Lock()
		// A later attempt of the same job is not this task's to stall.
		if e.j.State == StateRunning && e.j.Attempts == e.snap.Attempts {
			e.j.stalled = true
		}
		s.q.mu.Unlock()
		e.cancel()
	})
	defer task.Done()
	result, fail := s.exec(e)
	s.settle(e.j, result, fail)
}

// exec runs the executor, turning a panic into an internal failure so
// the job settles and its worker slot frees. A deterministic executor
// would panic again, so the failure is not retryable.
func (s *Scheduler) exec(e *execution) (result json.RawMessage, fail *Failure) {
	defer func() {
		if r := recover(); r != nil {
			result, fail = nil, &Failure{
				Code:    "internal",
				Message: fmt.Sprintf("job executor panicked: %v", r),
				Status:  500,
			}
		}
	}()
	return s.opts.Exec(e.ctx, e.snap)
}

// settle routes an execution outcome into the job's next state:
// done, cancelled (user asked), requeued (drain interrupted it, or the
// failure is retryable with attempts left), or failed.
func (s *Scheduler) settle(j *Job, result json.RawMessage, fail *Failure) {
	draining := s.isDraining()
	q := s.q
	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case fail == nil:
		q.terminalLocked(j, StateDone, result, nil)
	case j.CancelRequested:
		q.terminalLocked(j, StateCancelled, nil, nil)
	case j.stalled:
		// The watchdog cancelled a wedged run: the job did nothing
		// wrong, so it goes back to the queue for a fresh attempt (the
		// deterministic executor makes the re-run byte-identical).
		q.stallReqs++
		q.requeueLocked(j, 0)
	case draining:
		// The drain deadline cancelled the run; the work is not failed,
		// just unfinished — back to queued, checkpointed for next boot.
		q.drainReqs++
		q.requeueLocked(j, 0)
	case fail.Retryable && j.Attempts < j.Spec.MaxAttempts:
		q.retries++
		q.requeueLocked(j, time.Duration(fail.RetryAfterMS)*time.Millisecond)
	default:
		q.terminalLocked(j, StateFailed, nil, fail)
	}
}

// Drain shuts the scheduler down gracefully: stop dispatching, give
// running jobs until ctx ends to finish, then cancel the stragglers and
// requeue them (journaled) so the next boot re-executes them, and fold
// the journal into a fresh snapshot. Safe to call once.
func (s *Scheduler) Drain(ctx context.Context) DrainResult {
	before := s.q.Stats()
	s.stopDispatch()
	s.dispatcherWG.Wait()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline: flag the drain (settle() now requeues instead of
		// failing), cut every running job's context, and wait for the
		// executors to unwind — they honour ctx, so this is prompt.
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		s.q.mu.Lock()
		for _, j := range s.q.jobs {
			if j.State == StateRunning && j.cancel != nil {
				j.cancel()
			}
		}
		s.q.mu.Unlock()
		<-done
	}
	_ = s.q.Checkpoint()

	after := s.q.Stats()
	fin := (after.Transitions[StateDone] + after.Transitions[StateFailed] + after.Transitions[StateCancelled]) -
		(before.Transitions[StateDone] + before.Transitions[StateFailed] + before.Transitions[StateCancelled])
	return DrainResult{
		Finished: int(fin),
		Requeued: int(after.DrainRequeues - before.DrainRequeues),
	}
}
