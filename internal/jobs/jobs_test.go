package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"biasmit/internal/obs"
)

// waitState polls until the job reaches state st or the deadline ends.
func waitState(t *testing.T, q *Queue, id string, st State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := q.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.State == st {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := q.Get(id)
	t.Fatalf("job %s stuck in %s, want %s", id, j.State, st)
	return Job{}
}

// TestIDOrderingAndValidation pins the job IDs a queue mints: each one
// passes the ID validator, and IDs sort strictly in submission order
// even when every submission lands in the same millisecond (a frozen
// clock), which listings and the scheduler's FIFO tie-break rely on.
func TestIDOrderingAndValidation(t *testing.T) {
	frozen := time.Unix(1_700_000_000, 0)
	q := NewQueue(Options{Now: func() time.Time { return frozen }})
	prev := ""
	for i := 0; i < 10000; i++ {
		j, err := q.Submit(Spec{Type: "mitigate", Payload: json.RawMessage(`{}`)})
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidID(j.ID); err != nil {
			t.Fatal(err)
		}
		if j.ID <= prev {
			t.Fatalf("ID %q does not sort after %q", j.ID, prev)
		}
		prev = j.ID
	}
	for _, bad := range []string{"", "short", "abcdefghijklmnopqrstuvwxyz", "0123456789ABCDEFGHJKMNPQRSI"} {
		if err := obs.ValidID(bad); err == nil {
			t.Fatalf("ValidID(%q) accepted", bad)
		}
		if _, ok := q.Get(bad); ok {
			t.Fatalf("Get(%q) found a job", bad)
		}
	}
}

func TestSubmitLifecycleDone(t *testing.T) {
	q := NewQueue(Options{})
	s := NewScheduler(q, SchedulerOptions{
		Workers: 2,
		Exec: func(ctx context.Context, j Job) (json.RawMessage, *Failure) {
			return json.RawMessage(`{"echo":"` + j.Spec.Type + `"}`), nil
		},
	})
	s.Start()
	defer s.Drain(context.Background())

	j, err := q.Submit(Spec{Type: "mitigate", Tenant: "t1", Payload: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued || j.ID == "" {
		t.Fatalf("submitted job = %+v", j)
	}
	ch, ok := q.Await(j.ID)
	if !ok {
		t.Fatal("Await: job not found")
	}
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("job never reached a terminal state")
	}
	got := waitState(t, q, j.ID, StateDone)
	if string(got.Result) != `{"echo":"mitigate"}` {
		t.Fatalf("result = %s", got.Result)
	}
	if got.Attempts != 1 {
		t.Fatalf("attempts=%d, want 1", got.Attempts)
	}
	st := q.Stats()
	if st.Done != 1 || st.Transitions[StateDone] != 1 || st.Transitions[StateRunning] != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFailureIsTerminal(t *testing.T) {
	q := NewQueue(Options{})
	s := NewScheduler(q, SchedulerOptions{
		Workers: 1,
		Exec: func(context.Context, Job) (json.RawMessage, *Failure) {
			return nil, &Failure{Code: "internal", Message: "boom", Status: 500}
		},
	})
	s.Start()
	defer s.Drain(context.Background())
	j, _ := q.Submit(Spec{Type: "mitigate"})
	got := waitState(t, q, j.ID, StateFailed)
	if got.Failure == nil || got.Failure.Code != "internal" {
		t.Fatalf("failure = %+v", got.Failure)
	}
	if got.Spec.Tenant != "anon" {
		t.Fatalf("tenant defaulted to %q, want anon", got.Spec.Tenant)
	}
}

// TestPanickingExecutorFailsOnlyItsJob: an executor panic fails that
// job (internal, 500, not retryable, since a deterministic executor
// would panic again) and the scheduler keeps going: every later job
// runs to done and Drain returns. Every wait is bounded, so a wedged
// scheduler fails the test instead of hanging it.
func TestPanickingExecutorFailsOnlyItsJob(t *testing.T) {
	q := NewQueue(Options{})
	var calls atomic.Int32
	s := NewScheduler(q, SchedulerOptions{
		Workers: 2,
		Exec: func(_ context.Context, j Job) (json.RawMessage, *Failure) {
			if calls.Add(1) == 1 {
				panic("executor bug")
			}
			return j.Spec.Payload, nil
		},
	})
	var ids []string
	for i := 0; i < 6; i++ {
		j, err := q.Submit(Spec{Type: "mitigate", Payload: json.RawMessage(fmt.Sprintf(`{"seed":%d}`, i))})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	s.Start()

	deadline := time.Now().Add(10 * time.Second)
	for st := q.Stats(); st.Done+st.Failed < len(ids); st = q.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("jobs never settled after an executor panic: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	failed := 0
	for _, id := range ids {
		j, _ := q.Get(id)
		switch {
		case j.State == StateDone:
		case j.State == StateFailed && j.Failure != nil && j.Failure.Code == "internal" &&
			j.Failure.Status == 500:
			failed++
		default:
			t.Fatalf("job %s ended %s with failure %+v", id, j.State, j.Failure)
		}
	}
	if failed != 1 {
		t.Fatalf("%d jobs failed, want only the one whose executor panicked", failed)
	}

	drained := make(chan struct{})
	go func() {
		s.Drain(context.Background())
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned after an executor panic")
	}
}

func TestCancelQueuedImmediate(t *testing.T) {
	q := NewQueue(Options{}) // no scheduler: the job stays queued
	j, _ := q.Submit(Spec{Type: "mitigate"})
	got, err := q.Cancel(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got.State)
	}
	if _, err := q.Cancel(j.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("second cancel err = %v, want ErrTerminal", err)
	}
	if _, err := q.Cancel("00000000000000000000000000"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown cancel err = %v, want ErrNotFound", err)
	}
}

func TestCancelRunningPropagatesContext(t *testing.T) {
	started := make(chan struct{})
	q := NewQueue(Options{})
	s := NewScheduler(q, SchedulerOptions{
		Workers: 1,
		Exec: func(ctx context.Context, j Job) (json.RawMessage, *Failure) {
			close(started)
			<-ctx.Done() // the cancel must reach the runner
			return nil, &Failure{Code: "canceled", Message: ctx.Err().Error()}
		},
	})
	s.Start()
	defer s.Drain(context.Background())
	j, _ := q.Submit(Spec{Type: "mitigate"})
	<-started
	if _, err := q.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, q, j.ID, StateCancelled)
	if got.Failure != nil {
		t.Fatalf("cancelled job carries failure %+v", got.Failure)
	}
	if st := q.Stats(); st.Transitions[StateCancelled] != 1 {
		t.Fatalf("transitions = %+v", st.Transitions)
	}
}

func TestTenantQuota(t *testing.T) {
	q := NewQueue(Options{MaxPerTenant: 2})
	if _, err := q.Submit(Spec{Tenant: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Spec{Tenant: "a"}); err != nil {
		t.Fatal(err)
	}
	_, err := q.Submit(Spec{Tenant: "a"})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("third submit err = %v, want *QuotaError", err)
	}
	// Other tenants are unaffected.
	if _, err := q.Submit(Spec{Tenant: "b"}); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Throttled != 1 || st.Submitted != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPriorityClasses(t *testing.T) {
	q := NewQueue(Options{})
	var mu sync.Mutex
	var order []string
	s := NewScheduler(q, SchedulerOptions{
		Workers: 1,
		Exec: func(_ context.Context, j Job) (json.RawMessage, *Failure) {
			mu.Lock()
			order = append(order, j.Spec.Type)
			mu.Unlock()
			return json.RawMessage(`{}`), nil
		},
	})
	// Submit before starting so dispatch order is pure policy.
	var last Job
	for _, spec := range []Spec{
		{Type: "low-1", Priority: 0},
		{Type: "high-1", Priority: 5},
		{Type: "low-2", Priority: 0},
		{Type: "high-2", Priority: 5},
	} {
		last, _ = q.Submit(spec)
	}
	s.Start()
	defer s.Drain(context.Background())
	waitState(t, q, last.ID, StateDone)
	for _, j := range q.List("", "") {
		waitState(t, q, j.ID, StateDone)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"high-1", "high-2", "low-1", "low-2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

// TestWeightedRoundRobinFairness: tenants share the workers in equal
// turns. A tenant that queued a long backlog first does not make a
// later tenant wait behind all of it — while both have work pending,
// the slots alternate.
func TestWeightedRoundRobinFairness(t *testing.T) {
	q := NewQueue(Options{})
	var mu sync.Mutex
	var order []string
	s := NewScheduler(q, SchedulerOptions{
		Workers: 1,
		Exec: func(_ context.Context, j Job) (json.RawMessage, *Failure) {
			mu.Lock()
			order = append(order, j.Spec.Tenant)
			mu.Unlock()
			return json.RawMessage(`{}`), nil
		},
	})
	const bulk, light = 9, 3
	for i := 0; i < bulk; i++ {
		if _, err := q.Submit(Spec{Tenant: "bulk"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < light; i++ {
		if _, err := q.Submit(Spec{Tenant: "light"}); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	defer s.Drain(context.Background())
	for _, j := range q.List("", "") {
		waitState(t, q, j.ID, StateDone)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"bulk", "light", "bulk", "light", "bulk", "light"}
	for i := 0; i < bulk-light; i++ {
		want = append(want, "bulk")
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

func TestListFilters(t *testing.T) {
	q := NewQueue(Options{})
	a, _ := q.Submit(Spec{Tenant: "a"})
	b, _ := q.Submit(Spec{Tenant: "b"})
	if _, err := q.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	if got := q.List(StateQueued, ""); len(got) != 1 || got[0].ID != a.ID {
		t.Fatalf("List(queued) = %+v", got)
	}
	if got := q.List("", "b"); len(got) != 1 || got[0].State != StateCancelled {
		t.Fatalf("List(tenant b) = %+v", got)
	}
	if got := q.List(StateCancelled, "a"); len(got) != 0 {
		t.Fatalf("List(cancelled, a) = %+v", got)
	}
	if _, err := ParseState("bogus"); err == nil {
		t.Fatal("ParseState accepted bogus")
	}
	sorted := q.List("", "")
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID }) {
		t.Fatal("List not sorted by ID")
	}
}

// TestTerminalRetention: past terminalRetention terminal jobs, the
// oldest are evicted and the rest stay queryable.
func TestTerminalRetention(t *testing.T) {
	q := NewQueue(Options{})
	var ids []string
	for i := 0; i < terminalRetention+2; i++ {
		j, err := q.Submit(Spec{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Cancel(j.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for i, id := range ids {
		if _, ok := q.Get(id); ok != (i >= 2) {
			t.Fatalf("terminal job %d of %d: queryable %v", i, len(ids), ok)
		}
	}
}

func TestPageCursorWalk(t *testing.T) {
	q := NewQueue(Options{})
	var want []string
	for i := 0; i < 5; i++ {
		j, err := q.Submit(Spec{Tenant: "a"})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, j.ID)
	}

	// Pages of two hand out every job exactly once, in ID order, with
	// next cursors that chain and run dry on the final page.
	var got []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 3 {
			t.Fatal("pagination did not terminate")
		}
		page, next := q.Page("", "", cursor, 2)
		if len(page) > 2 {
			t.Fatalf("page of %d jobs, limit 2", len(page))
		}
		for _, j := range page {
			got = append(got, j.ID)
		}
		if next == "" {
			break
		}
		cursor = next
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paged %v, want %v", got, want)
	}

	// The cursor is a watermark: a job submitted mid-iteration sorts
	// after every ID already handed out, so resuming from the old
	// cursor surfaces it without disturbing earlier pages.
	first, next := q.Page("", "", "", 3)
	late, err := q.Submit(Spec{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	rest, last := q.Page("", "", next, 0)
	if last != "" {
		t.Fatalf("unbounded page still has next cursor %q", last)
	}
	var resumed []string
	for _, j := range append(first, rest...) {
		resumed = append(resumed, j.ID)
	}
	if !reflect.DeepEqual(resumed, append(want, late.ID)) {
		t.Fatalf("resumed walk %v, want %v", resumed, append(want, late.ID))
	}

	// Filters and limits compose; a cursor past the end is an empty page.
	if page, _ := q.Page(StateQueued, "b", "", 2); len(page) != 0 {
		t.Fatalf("Page(tenant b) = %+v", page)
	}
	if page, next := q.Page("", "", late.ID, 2); len(page) != 0 || next != "" {
		t.Fatalf("Page past the end = %+v next %q", page, next)
	}
}
