package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"biasmit/internal/orchestrate"
	"biasmit/internal/overload"
)

// ExecFunc executes one job and returns its result or failure. It must
// honour ctx (cancellation, drain) and be deterministic for a given
// spec — crash recovery re-runs interrupted jobs and promises the same
// bytes. The job argument is a snapshot; mutating it has no effect.
type ExecFunc func(ctx context.Context, job Job) (json.RawMessage, *Failure)

// PrepareFunc runs once per micro-batch before its members execute —
// the shared-setup hook (one profile fetch serving the whole batch).
// Failures are the members' problem to re-discover individually, so
// Prepare returns nothing.
type PrepareFunc func(ctx context.Context, batchKey string, size int)

// SchedulerOptions tunes a Scheduler.
type SchedulerOptions struct {
	// Exec executes jobs (required).
	Exec ExecFunc
	// Prepare, when set, runs once per batch with a BatchKey.
	Prepare PrepareFunc
	// Workers bounds concurrently executing batches (default 2).
	Workers int
	// BatchWindow is how long a dispatched batchable job waits for
	// compatible jobs to coalesce before executing (0 = no waiting).
	BatchWindow time.Duration
	// MaxBatch bounds a micro-batch (default 8).
	MaxBatch int
	// Weights are the per-tenant fairness weights (default 1 each).
	Weights map[string]int
	// Watchdog, when set, heartbeats the dispatcher loop and every
	// executing batch. A batch whose executor stops making progress
	// (no heartbeat for the watchdog's stall threshold) gets a goroutine
	// dump logged, its member contexts cancelled, and its jobs requeued
	// — the self-healing path for runs wedged on a gray backend. Nil
	// disables watching.
	Watchdog *overload.Watchdog
	// Now and After override the clock, for tests.
	Now   func() time.Time
	After func(d time.Duration) <-chan time.Time
}

func (o SchedulerOptions) withDefaults() SchedulerOptions {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
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
	pool         *orchestrate.Pool
	slots        chan struct{}  // worker backpressure: dispatch picks only when a worker is free
	wg           sync.WaitGroup // in-flight batches
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
		// The pool's own context is never cancelled while batches are in
		// flight — drain cancels per-job contexts instead — so every
		// submitted batch is guaranteed to run and settle its jobs.
		pool:  orchestrate.NewPool(context.Background(), opts.Workers),
		slots: make(chan struct{}, opts.Workers),
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

// dispatch is the scheduler loop: pick the next batch under the
// fairness policy, optionally hold it open for the batching window,
// then hand it to the pool.
func (s *Scheduler) dispatch() {
	// The dispatcher heartbeats the watchdog every iteration and marks
	// itself idle before blocking on an empty queue; a wedged dispatch
	// loop (not an empty one) is what trips the stall detector.
	task := s.opts.Watchdog.Register("jobs-dispatcher", s.stopDispatch)
	defer task.Done()
	for {
		task.Beat()
		// Hold a worker slot before picking: scheduling decisions (WRR
		// slot, priority, batch coalescing) are made against the live
		// queue as workers free up, and batches execute in pick order —
		// the pool's semaphore never has to arbitrate.
		task.Idle()
		select {
		case <-s.dispatchCtx.Done():
			return
		case s.slots <- struct{}{}:
		}
		task.Beat()
		batch, wait := s.nextBatch()
		if batch == nil {
			<-s.slots
			var timer <-chan time.Time
			if wait > 0 {
				timer = s.opts.After(wait)
			}
			task.Idle()
			select {
			case <-s.dispatchCtx.Done():
				return
			case <-s.q.notifyCh:
			case <-timer:
			}
			continue
		}
		if batch[0].Spec.BatchKey != "" && s.opts.BatchWindow > 0 && len(batch) < s.opts.MaxBatch {
			// Hold the batch open: compatible jobs arriving within the
			// window ride along and share the batch's setup.
			task.Idle()
			select {
			case <-s.dispatchCtx.Done():
				s.releaseReserved(batch)
				return
			case <-s.opts.After(s.opts.BatchWindow):
			}
			task.Beat()
			batch = append(batch, s.gather(batch[0].Spec.BatchKey, s.opts.MaxBatch-len(batch))...)
		}
		s.wg.Add(1)
		b := batch
		s.pool.Go(func(context.Context) error {
			defer func() { <-s.slots }()
			defer s.wg.Done()
			s.runBatch(b)
			return nil
		})
	}
}

// weight resolves a tenant's fairness weight.
func (s *Scheduler) weight(tenant string) int {
	if w, ok := s.opts.Weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// nextBatch picks the next job under smooth weighted round-robin across
// tenants (priority then FIFO within a tenant) and immediately gathers
// already-pending compatible jobs. Returns (nil, wait) when nothing is
// dispatchable: wait > 0 means a retry-delayed job becomes ready then.
func (s *Scheduler) nextBatch() ([]*Job, time.Duration) {
	q := s.q
	q.mu.Lock()
	defer q.mu.Unlock()
	now := s.opts.Now()

	// Tenants with at least one dispatchable job, in stable order so the
	// WRR sequence is deterministic.
	var tenants []string
	var soonest time.Duration
	for tenant, list := range q.pending {
		ready := false
		for _, j := range list {
			if j.notBefore.IsZero() || !j.notBefore.After(now) {
				ready = true
				break
			}
			if d := j.notBefore.Sub(now); soonest == 0 || d < soonest {
				soonest = d
			}
		}
		if ready {
			tenants = append(tenants, tenant)
		}
	}
	if len(tenants) == 0 {
		return nil, soonest
	}
	sort.Strings(tenants)

	// Smooth WRR: every dispatchable tenant earns its weight, the
	// highest credit wins the slot and pays back the round's total.
	total := 0
	for _, t := range tenants {
		q.credits[t] += s.weight(t)
		total += s.weight(t)
	}
	pick := tenants[0]
	for _, t := range tenants[1:] {
		if q.credits[t] > q.credits[pick] {
			pick = t
		}
	}
	q.credits[pick] -= total

	// Within the tenant: highest priority class first, then FIFO.
	var lead *Job
	for _, j := range q.pending[pick] {
		if !j.notBefore.IsZero() && j.notBefore.After(now) {
			continue
		}
		if lead == nil || j.Spec.Priority > lead.Spec.Priority {
			lead = j
		}
	}
	q.removePendingLocked(lead)
	lead.reserved = true
	lead.reservedAt = now
	batch := []*Job{lead}
	if lead.Spec.BatchKey != "" {
		batch = append(batch, s.gatherLocked(lead.Spec.BatchKey, s.opts.MaxBatch-1, now)...)
	}
	return batch, 0
}

// gather pulls pending jobs compatible with key (any tenant — riding an
// existing batch is free amortization, not a fairness slot).
func (s *Scheduler) gather(key string, max int) []*Job {
	s.q.mu.Lock()
	defer s.q.mu.Unlock()
	return s.gatherLocked(key, max, s.opts.Now())
}

func (s *Scheduler) gatherLocked(key string, max int, now time.Time) []*Job {
	q := s.q
	if max <= 0 {
		return nil
	}
	var all []*Job
	for _, list := range q.pending {
		for _, j := range list {
			if j.Spec.BatchKey == key && (j.notBefore.IsZero() || !j.notBefore.After(now)) {
				all = append(all, j)
			}
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].seq < all[b].seq })
	if len(all) > max {
		all = all[:max]
	}
	for _, j := range all {
		q.removePendingLocked(j)
		j.reserved = true
		j.reservedAt = now
	}
	return all
}

// releaseReserved puts a dispatched-but-never-started batch back in the
// queue (dispatcher shutdown won the race).
func (s *Scheduler) releaseReserved(batch []*Job) {
	s.q.mu.Lock()
	defer s.q.mu.Unlock()
	for _, j := range batch {
		if j.State == StateQueued && j.reserved {
			j.reserved = false
			q := s.q
			q.pending[j.Spec.Tenant] = append(q.pending[j.Spec.Tenant], j)
			list := q.pending[j.Spec.Tenant]
			sort.Slice(list, func(a, b int) bool { return list[a].seq < list[b].seq })
		}
	}
}

// runBatch executes one micro-batch: start every member (skipping ones
// cancelled while reserved, requeueing all of them if a drain began),
// run the shared prepare hook once, then execute members in order.
func (s *Scheduler) runBatch(batch []*Job) {
	type member struct {
		j *Job
		// run is the copy handed to the executor, taken under q.mu:
		// Cancel may write to j while the batch runs.
		run Job
		ctx context.Context
	}
	q := s.q
	var members []member
	var cancels []context.CancelFunc
	draining := s.isDraining()
	q.mu.Lock()
	now := s.opts.Now()
	size := 0
	for _, j := range batch {
		switch {
		case j.CancelRequested:
			q.terminalLocked(j, StateCancelled, nil, nil)
		case draining:
			// Drain began before this batch got a worker: checkpoint the
			// members straight back to queued for the next boot.
			q.drainReqs++
			q.requeueLocked(j, 0)
		case j.Spec.Deadline != nil && now.After(*j.Spec.Deadline):
			// The propagated deadline expired while the job sat queued:
			// whoever asked has given up, so running it now is pure
			// waste. Shed it as the typed failure the sync path returns.
			q.expired++
			q.terminalLocked(j, StateFailed, nil, &Failure{
				Code:    "deadline_exceeded",
				Message: "job deadline expired before execution started",
				Status:  504,
			})
		default:
			size++
		}
	}
	for _, j := range batch {
		if j.State != StateQueued || !j.reserved {
			continue
		}
		j.State = StateRunning
		j.StartedAt = now
		j.Attempts++
		j.BatchSize = size
		j.reserved = false
		if !j.reservedAt.IsZero() {
			// The reserved→running gap is the micro-batch window wait;
			// the executor reports it as the batch_wait trace span.
			j.batchWait = now.Sub(j.reservedAt)
			j.reservedAt = time.Time{}
		}
		ctx, cancel := context.WithCancel(context.Background())
		if j.Spec.Deadline != nil {
			// The execution budget is the remaining propagated deadline.
			ctx, cancel = context.WithDeadline(context.Background(), *j.Spec.Deadline)
		}
		j.cancel = cancel
		cancels = append(cancels, cancel)
		q.transitions[StateRunning]++
		q.journalLocked(j)
		members = append(members, member{j: j, run: j.clone(), ctx: ctx})
	}
	if len(members) > 0 {
		q.batches++
		q.batchedJobs += uint64(len(members))
		if len(members) > q.maxBatch {
			q.maxBatch = len(members)
		}
	}
	q.mu.Unlock()
	if len(members) == 0 {
		return
	}
	defer func() {
		// Release the deadline timers (terminalLocked/requeueLocked only
		// drop the reference).
		for _, c := range cancels {
			c()
		}
	}()

	// The batch heartbeats between members; an executor that stops
	// making progress trips the watchdog, which dumps goroutines, marks
	// the still-running members stalled, and cancels their contexts so
	// settle() requeues them instead of failing them.
	wtask := s.opts.Watchdog.Register(fmt.Sprintf("jobs-batch %s", members[0].j.ID), func() {
		q.mu.Lock()
		var cut []context.CancelFunc
		for _, m := range members {
			if m.j.State == StateRunning {
				m.j.stalled = true
				if m.j.cancel != nil {
					cut = append(cut, m.j.cancel)
				}
			}
		}
		q.mu.Unlock()
		for _, c := range cut {
			c()
		}
	})
	defer wtask.Done()

	if s.opts.Prepare != nil && members[0].j.Spec.BatchKey != "" {
		s.opts.Prepare(members[0].ctx, members[0].j.Spec.BatchKey, len(members))
	}
	for _, m := range members {
		wtask.Beat()
		result, fail := s.opts.Exec(m.ctx, m.run)
		s.settle(m.j, result, fail)
	}
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
	_ = s.pool.Wait()
	_ = s.q.Checkpoint()

	after := s.q.Stats()
	fin := (after.Transitions[StateDone] + after.Transitions[StateFailed] + after.Transitions[StateCancelled]) -
		(before.Transitions[StateDone] + before.Transitions[StateFailed] + before.Transitions[StateCancelled])
	return DrainResult{
		Finished: int(fin),
		Requeued: int(after.DrainRequeues - before.DrainRequeues),
	}
}
