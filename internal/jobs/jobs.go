// Package jobs is biasmitd's durable asynchronous job-queue subsystem:
// submit a mitigation or characterization as a job, poll (or long-poll)
// its state, and fetch the result later — the request-queue shape that
// lets large AIM runs outlive the HTTP connection that submitted them.
//
// The package is two halves sharing one lock:
//
//   - Queue: typed job specs with ULID ordered IDs (internal/obs), a journaled
//     state machine (queued → running → done/failed/cancelled), and
//     crash-safe recovery. Every state transition is appended as a full
//     job record to a persist.Journal — a checksummed WAL with periodic
//     snapshot compaction, the same journal the profile store keeps. On
//     restart no job is lost and none duplicated:
//     jobs caught mid-run are re-queued and re-executed — the executor
//     is deterministic per seed, so the re-run is byte-identical to
//     what the first run would have produced.
//
//   - Scheduler: drains the queue into a bounded worker set with
//     per-tenant round-robin fairness, priority classes within a
//     tenant, and per-tenant admission quotas. Each job runs alone in
//     its worker slot until its executor returns, which its deadline
//     bounds; jobs that need the same RBMS profile share it through the
//     profile store. A panicking executor fails its job instead of
//     taking the worker set down. A failed execution is final: the
//     executor retries each backend run itself, so the queue never
//     re-runs a job. Only crash recovery and a drain move a job from
//     running back to queued.
//
// The queue never executes anything itself; the executor is injected
// (ExecFunc), which keeps this package free of simulator imports and
// lets tests drive the full lifecycle with stub executors.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"biasmit/internal/obs"
)

// State is a job lifecycle state.
type State string

// Job lifecycle states. Terminal states are final: a job enters exactly
// one of them exactly once.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ParseState validates a state filter string ("" matches everything).
func ParseState(s string) (State, error) {
	switch State(s) {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		return State(s), nil
	}
	return "", fmt.Errorf("jobs: unknown state %q", s)
}

// Spec is what a job runs: the typed payload plus its scheduling
// attributes. Specs are immutable after submission.
type Spec struct {
	// Type names the job kind (api.JobTypeMitigate / Characterize); the
	// queue treats it as opaque, the executor dispatches on it.
	Type string `json:"type"`
	// Tenant is the fairness and quota identity (API key or "anon").
	Tenant string `json:"tenant"`
	// Priority is the scheduling class: higher dispatches first within
	// the tenant's share.
	Priority int `json:"priority,omitempty"`
	// Deadline is the propagated absolute deadline (X-Request-Deadline):
	// the scheduler fails the job with deadline_exceeded instead of
	// starting it once the deadline has passed — executing work whose
	// requester has given up is pure waste — and caps the execution
	// context so a started job cannot overrun it either. Nil = none.
	Deadline *time.Time `json:"deadline,omitempty"`
	// TraceID is the submitting request's trace ID. It travels in the
	// spec — and therefore through the journal — so a job recovered
	// after a crash still carries the trace its submitter was handed,
	// and the recovery re-execution logs under the original ID.
	TraceID string `json:"trace_id,omitempty"`
	// Payload is the request body the executor will decode (the same
	// struct the synchronous endpoint takes).
	Payload json.RawMessage `json:"payload"`
}

// Failure is the terminal error of a failed job — the same stable code
// and message the synchronous endpoint would have returned. A failed
// job is final: the executor has already retried each backend run.
type Failure struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Status  int    `json:"status,omitempty"`
}

// Job is one queued unit of work and its full lifecycle trace. The
// exported fields are exactly what the journal persists.
type Job struct {
	ID              string          `json:"id"`
	Spec            Spec            `json:"spec"`
	State           State           `json:"state"`
	SubmittedAt     time.Time       `json:"submitted_at"`
	StartedAt       time.Time       `json:"started_at,omitempty"`
	FinishedAt      time.Time       `json:"finished_at,omitempty"`
	Attempts        int             `json:"attempts,omitempty"`
	Requeues        int             `json:"requeues,omitempty"`
	CancelRequested bool            `json:"cancel_requested,omitempty"`
	Result          json.RawMessage `json:"result,omitempty"`
	Failure         *Failure        `json:"failure,omitempty"`

	// Runtime-only state, never persisted.
	seq    uint64             // in-memory FIFO order (recovery preserves ID order)
	cancel context.CancelFunc // cancels the running execution
	done   chan struct{}      // closed on terminal
}

// clone returns a persistence/wire-safe copy (shared immutable slices,
// no runtime fields — they are unexported, so marshalling ignores them,
// but the copy also detaches the caller from future mutations).
func (j *Job) clone() Job {
	c := *j
	c.cancel = nil
	c.done = nil
	return c
}

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("jobs: no such job")

// ErrTerminal reports a cancel of a job already in a terminal state.
var ErrTerminal = errors.New("jobs: job already in a terminal state")

// QuotaError reports a submission rejected by the tenant's admission
// quota.
type QuotaError struct {
	Tenant string
	Limit  int
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("jobs: tenant %q already has %d jobs queued or running", e.Tenant, e.Limit)
}

// Options tunes a Queue.
type Options struct {
	// Log makes the queue durable; nil is memory-only (tests, ad-hoc
	// runs). The queue owns appends; the caller owns Close.
	Log *Log
	// Now overrides the clock, for tests.
	Now func() time.Time
	// MaxPerTenant bounds a tenant's non-terminal jobs; submissions past
	// it are rejected with *QuotaError. Zero = unbounded.
	MaxPerTenant int
}

// terminalRetention bounds how many terminal jobs stay queryable; the
// oldest are evicted (and dropped from the journal's next snapshot).
const terminalRetention = 4096

// Stats is a point-in-time snapshot of the queue's gauges and counters.
type Stats struct {
	// Depth by state (gauges).
	Queued, Running, Done, Failed, Cancelled int
	// Submitted counts accepted submissions; Throttled counts
	// quota-rejected ones.
	Submitted uint64
	Throttled uint64
	// Transitions counts entries into each state (queued includes
	// requeues).
	Transitions map[State]uint64
	// DrainRequeues counts jobs pushed back to queued by a drain
	// deadline; Expired counts jobs failed because their propagated
	// deadline passed before they started.
	DrainRequeues uint64
	Expired       uint64
	// OldestQueued is the age of the oldest still-queued job — the
	// backlog-staleness signal /healthz reports. Zero when nothing is
	// queued.
	OldestQueued time.Duration
	// RecoveredJobs / RecoveredRequeued describe the last boot: live
	// jobs reconstructed, and how many were mid-run and went back to
	// queued.
	RecoveredJobs     int
	RecoveredRequeued int
	// JournalErrors counts transition appends that failed (the in-memory
	// state kept going).
	JournalErrors uint64
}

// Queue is the durable job queue. Construct with NewQueue; all methods
// are safe for concurrent use.
type Queue struct {
	opts Options
	now  func() time.Time

	mu         sync.Mutex
	jobs       map[string]*Job
	pending    map[string][]*Job // tenant -> dispatchable jobs, seq order
	lastTenant string            // round-robin turn: the tenant served last
	terminal   []string          // terminal job IDs, oldest first (retention)
	gen        *obs.IDGen
	seq        uint64
	notifyCh   chan struct{}

	submitted   uint64
	throttled   uint64
	transitions map[State]uint64
	drainReqs   uint64
	expired     uint64
	recovered   int
	recoveredRq int
	journalErrs uint64
}

// NewQueue builds a queue, recovering journaled jobs when opts.Log is
// set: terminal jobs become queryable history, queued jobs go back to
// pending, and jobs caught mid-run (state running) are re-queued — they
// never reached a terminal state, so re-executing them is the
// exactly-once outcome. Requeues performed here are themselves
// journaled, so a second crash replays the same decision.
func NewQueue(opts Options) *Queue {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	q := &Queue{
		opts:        opts,
		now:         opts.Now,
		jobs:        make(map[string]*Job),
		pending:     make(map[string][]*Job),
		gen:         obs.NewIDGen(opts.Now),
		notifyCh:    make(chan struct{}, 1),
		transitions: make(map[State]uint64),
	}
	var recovered []Job
	if opts.Log != nil {
		recovered = opts.Log.Records()
	}
	for _, rec := range recovered {
		j := rec // copy
		j.seq = q.nextSeq()
		j.done = make(chan struct{})
		switch {
		case j.State.Terminal():
			close(j.done)
			q.terminal = append(q.terminal, j.ID)
		case j.CancelRequested:
			// The cancel was accepted before the crash; honour it rather
			// than re-running work nobody wants.
			j.State = StateCancelled
			j.FinishedAt = q.now()
			j.Failure = nil
			close(j.done)
			q.terminal = append(q.terminal, j.ID)
			q.transitions[StateCancelled]++
			q.journalLocked(&j)
		case j.State == StateRunning:
			// Caught mid-run: back to the queue for deterministic
			// re-execution.
			j.State = StateQueued
			j.StartedAt = time.Time{}
			j.Requeues++
			q.recoveredRq++
			q.transitions[StateQueued]++
			// A journal failure here is absorbed like any runtime append
			// failure: the in-memory requeue stands, and a second crash
			// replays the same deterministic running→queued decision from
			// the prior records.
			q.journalLocked(&j)
			q.pending[j.Spec.Tenant] = append(q.pending[j.Spec.Tenant], &j)
		default: // queued
			q.pending[j.Spec.Tenant] = append(q.pending[j.Spec.Tenant], &j)
		}
		if !j.State.Terminal() {
			q.recovered++
		}
		q.jobs[j.ID] = &j
	}
	q.enforceRetentionLocked()
	return q
}

func (q *Queue) nextSeq() uint64 {
	q.seq++
	return q.seq
}

// notify wakes the dispatcher without blocking.
func (q *Queue) notify() {
	select {
	case q.notifyCh <- struct{}{}:
	default:
	}
}

// Submit accepts one job. The job is durably queued (journaled and
// fsynced) when Submit returns; a journal failure rejects the
// submission rather than accepting work that would vanish in a crash.
func (q *Queue) Submit(spec Spec) (Job, error) {
	if spec.Tenant == "" {
		spec.Tenant = "anon"
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.opts.MaxPerTenant > 0 {
		active := 0
		for _, j := range q.jobs {
			if j.Spec.Tenant == spec.Tenant && !j.State.Terminal() {
				active++
			}
		}
		if active >= q.opts.MaxPerTenant {
			q.throttled++
			return Job{}, &QuotaError{Tenant: spec.Tenant, Limit: active}
		}
	}
	j := &Job{
		ID:          q.gen.Next(),
		Spec:        spec,
		State:       StateQueued,
		SubmittedAt: q.now(),
		seq:         q.nextSeq(),
		done:        make(chan struct{}),
	}
	if q.opts.Log != nil {
		if err := q.opts.Log.Put(j.clone()); err != nil {
			return Job{}, err
		}
	}
	q.jobs[j.ID] = j
	q.pending[spec.Tenant] = append(q.pending[spec.Tenant], j)
	q.submitted++
	q.transitions[StateQueued]++
	q.notify()
	return j.clone(), nil
}

// Get returns a snapshot of one job.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.clone(), true
}

// Await returns a channel closed when the job reaches a terminal state
// (already closed for terminal jobs) — the long-poll primitive.
func (q *Queue) Await(id string) (<-chan struct{}, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, false
	}
	return j.done, true
}

// List returns job snapshots filtered by state and tenant ("" matches
// all), in submission order.
func (q *Queue) List(state State, tenant string) []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		if state != "" && j.State != state {
			continue
		}
		if tenant != "" && j.Spec.Tenant != tenant {
			continue
		}
		out = append(out, j.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Page returns one page of job snapshots filtered by state and tenant
// ("" matches all), ordered by ID ascending — ULIDs, so submission
// order — starting strictly after cursor ("" starts at the beginning),
// at most limit jobs (limit < 1 means no bound). The second return is
// the cursor for the next page, empty when this page exhausted the
// listing.
//
// The cursor is an ID watermark, not an offset, so the pagination is
// stable under concurrent inserts: new jobs mint ULIDs that sort after
// every ID already handed out, so they appear on (or after) the final
// page rather than shifting earlier pages.
func (q *Queue) Page(state State, tenant, cursor string, limit int) ([]Job, string) {
	all := q.List(state, tenant)
	i := sort.Search(len(all), func(i int) bool { return all[i].ID > cursor })
	all = all[i:]
	if limit > 0 && len(all) > limit {
		return all[:limit], all[limit-1].ID
	}
	return all, ""
}

// Cancel requests cancellation. A queued job is cancelled immediately;
// a running job gets its context cancelled and winds down to cancelled
// asynchronously. Returns the job as it now stands. ErrTerminal when
// there is nothing left to stop.
func (q *Queue) Cancel(id string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	switch {
	case j.State.Terminal():
		return j.clone(), ErrTerminal
	case j.State == StateQueued:
		q.removePendingLocked(j)
		q.terminalLocked(j, StateCancelled, nil, nil)
	default:
		// Running: flag it (persisted, so a crash before wind-down still
		// ends in cancelled) and cut the execution context.
		j.CancelRequested = true
		q.journalLocked(j)
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.clone(), nil
}

// removePendingLocked drops j from its tenant's pending list.
func (q *Queue) removePendingLocked(j *Job) {
	list := q.pending[j.Spec.Tenant]
	for i, p := range list {
		if p == j {
			q.pending[j.Spec.Tenant] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(q.pending[j.Spec.Tenant]) == 0 {
		delete(q.pending, j.Spec.Tenant)
	}
}

// journalLocked appends the job's current state to the log, absorbing
// (and counting) failures: once a job is accepted, in-memory progress
// must not stall on a sick disk — the WAL append-error counter is the
// operator's signal. A memory-only queue does nothing here.
func (q *Queue) journalLocked(j *Job) {
	if q.opts.Log != nil && q.opts.Log.Put(j.clone()) != nil {
		q.journalErrs++
	}
}

// terminalLocked moves j into a terminal state and wakes waiters.
func (q *Queue) terminalLocked(j *Job, st State, result json.RawMessage, fail *Failure) {
	j.State = st
	j.FinishedAt = q.now()
	j.Result = result
	j.Failure = fail
	j.cancel = nil
	q.transitions[st]++
	q.journalLocked(j)
	close(j.done)
	q.terminal = append(q.terminal, j.ID)
	q.enforceRetentionLocked()
}

// requeueLocked sends a running job back to pending (a drain
// interrupted it).
func (q *Queue) requeueLocked(j *Job) {
	j.State = StateQueued
	j.StartedAt = time.Time{}
	j.Requeues++
	j.cancel = nil
	q.transitions[StateQueued]++
	q.journalLocked(j)
	q.pending[j.Spec.Tenant] = append(q.pending[j.Spec.Tenant], j)
	// Keep FIFO order by seq: the requeued job kept its original seq, so
	// re-sort the tenant's list (short — per-tenant backlog).
	list := q.pending[j.Spec.Tenant]
	sort.Slice(list, func(a, b int) bool { return list[a].seq < list[b].seq })
	q.notify()
}

// enforceRetentionLocked evicts the oldest terminal jobs past
// terminalRetention, dropping them from future snapshots too.
func (q *Queue) enforceRetentionLocked() {
	for len(q.terminal) > terminalRetention {
		id := q.terminal[0]
		q.terminal = q.terminal[1:]
		delete(q.jobs, id)
		if q.opts.Log != nil {
			q.opts.Log.Forget(id)
		}
	}
}

// Checkpoint folds the journal into a fresh snapshot (the drain path's
// "checkpoint queued jobs"). No-op when memory-only.
func (q *Queue) Checkpoint() error {
	if q.opts.Log == nil {
		return nil
	}
	return q.opts.Log.Compact()
}

// Stats snapshots the queue's gauges and counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := Stats{
		Submitted:         q.submitted,
		Throttled:         q.throttled,
		Transitions:       make(map[State]uint64, len(q.transitions)),
		DrainRequeues:     q.drainReqs,
		Expired:           q.expired,
		RecoveredJobs:     q.recovered,
		RecoveredRequeued: q.recoveredRq,
		JournalErrors:     q.journalErrs,
	}
	for s, n := range q.transitions {
		st.Transitions[s] = n
	}
	now := q.now()
	for _, j := range q.jobs {
		switch j.State {
		case StateQueued:
			st.Queued++
			if age := now.Sub(j.SubmittedAt); age > st.OldestQueued {
				st.OldestQueued = age
			}
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	return st
}
