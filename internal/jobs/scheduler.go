package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"
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
	// Now overrides the clock, for tests.
	Now func() time.Time
}

func (o SchedulerOptions) withDefaults() SchedulerOptions {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Now == nil {
		o.Now = time.Now
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
		e := s.startNext()
		if e == nil {
			<-s.slots
			select {
			case <-s.dispatchCtx.Done():
				return
			case <-s.q.notifyCh:
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
// passed while they sat queued are shed on the way. Returns nil when
// nothing is queued.
func (s *Scheduler) startNext() *execution {
	q := s.q
	q.mu.Lock()
	defer q.mu.Unlock()
	now := s.opts.Now()
	for {
		j := q.nextLocked()
		if j == nil {
			return nil
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
		return &execution{j: j, snap: j.clone(), ctx: ctx, cancel: j.cancel}
	}
}

// nextLocked picks the next job to dispatch. Tenants take turns: the
// first tenant after the one served last, in name order and wrapping
// around, that has a queued job. Within the tenant the highest priority
// class goes first, then FIFO. Returns nil when nothing is queued.
func (q *Queue) nextLocked() *Job {
	var (
		pick string
		lead *Job
	)
	for tenant, list := range q.pending {
		var best *Job
		for _, j := range list {
			if best == nil || j.Spec.Priority > best.Spec.Priority {
				best = j
			}
		}
		if best != nil && (lead == nil || turnBefore(tenant, pick, q.lastTenant)) {
			pick, lead = tenant, best
		}
	}
	if lead != nil {
		q.lastTenant = pick
	}
	return lead
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

// run executes one started job and settles its outcome when the
// executor returns. Every run is bounded by its context's deadline, and
// the executor must honour it.
func (s *Scheduler) run(e *execution) {
	// Release the deadline timer (terminalLocked/requeueLocked only drop
	// the reference).
	defer e.cancel()
	result, fail := s.exec(e)
	s.settle(e.j, result, fail)
}

// exec runs the executor, turning a panic into an internal failure so
// the job settles and its worker slot frees.
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
// done, cancelled (user asked), requeued (a drain interrupted it), or
// failed.
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
	case draining:
		// The drain deadline cancelled the run; the work is not failed,
		// just unfinished — back to queued, checkpointed for next boot.
		q.drainReqs++
		q.requeueLocked(j)
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
