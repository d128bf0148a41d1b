package jobs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"biasmit/internal/persist"
)

// TestCrashRecoveryRequeuesMidRunJobs is the exactly-once core: kill the
// process with one job mid-run and one queued, reopen the journal, and
// both must execute to done — the interrupted one re-queued (never lost,
// never doubled).
func TestCrashRecoveryRequeuesMidRunJobs(t *testing.T) {
	dir := t.TempDir()
	log1, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	q1 := NewQueue(Options{Log: log1})
	started := make(chan struct{})
	s1 := NewScheduler(q1, SchedulerOptions{
		Workers: 1,
		Exec: func(ctx context.Context, j Job) (json.RawMessage, *Failure) {
			close(started)
			select {} // hang forever: the "process" dies mid-run
		},
	})
	running, _ := q1.Submit(Spec{Type: "mitigate", Payload: json.RawMessage(`{"seed":1}`)})
	queued, _ := q1.Submit(Spec{Type: "mitigate", Payload: json.RawMessage(`{"seed":2}`)})
	s1.Start()
	<-started
	waitState(t, q1, running.ID, StateRunning)
	// Crash: no drain, no close. The running transition is already
	// fsynced, so a fresh open of the same directory sees it.

	log2, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	q2 := NewQueue(Options{Log: log2})
	st := q2.Stats()
	if st.RecoveredJobs != 2 || st.RecoveredRequeued != 1 {
		t.Fatalf("recovery stats = %+v, want 2 recovered / 1 requeued", st)
	}
	got, ok := q2.Get(running.ID)
	if !ok || got.State != StateQueued || got.Requeues != 1 || got.Attempts != 1 {
		t.Fatalf("interrupted job = %+v, want queued with requeues=1 attempts=1", got)
	}
	if got, _ := q2.Get(queued.ID); got.State != StateQueued || got.Requeues != 0 {
		t.Fatalf("queued job = %+v", got)
	}

	s2 := NewScheduler(q2, SchedulerOptions{
		Workers: 2,
		Exec: func(ctx context.Context, j Job) (json.RawMessage, *Failure) {
			return j.Spec.Payload, nil
		},
	})
	s2.Start()
	defer s2.Drain(context.Background())
	for _, id := range []string{running.ID, queued.ID} {
		j := waitState(t, q2, id, StateDone)
		if j.Result == nil {
			t.Fatalf("job %s has no result", id)
		}
	}
	if j, _ := q2.Get(running.ID); j.Attempts != 2 {
		t.Fatalf("interrupted job attempts = %d, want 2 (one lost run, one replay)", j.Attempts)
	}
}

// TestCrashRecoveryHonoursPendingCancel: a cancel accepted (journaled)
// just before the crash must end in cancelled after recovery, not rerun.
func TestCrashRecoveryHonoursPendingCancel(t *testing.T) {
	dir := t.TempDir()
	log1, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	q1 := NewQueue(Options{Log: log1})
	started := make(chan struct{})
	s1 := NewScheduler(q1, SchedulerOptions{
		Workers: 1,
		Exec: func(ctx context.Context, j Job) (json.RawMessage, *Failure) {
			close(started)
			select {}
		},
	})
	j, _ := q1.Submit(Spec{Type: "mitigate"})
	s1.Start()
	<-started
	if _, err := q1.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	// Crash before the executor winds down.

	log2, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	q2 := NewQueue(Options{Log: log2})
	got, ok := q2.Get(j.ID)
	if !ok || got.State != StateCancelled {
		t.Fatalf("job after recovery = %+v, want cancelled", got)
	}
	ch, _ := q2.Await(j.ID)
	select {
	case <-ch:
	default:
		t.Fatal("terminal job's done channel not closed after recovery")
	}
}

// TestDrainDeadlineCheckpointsAndRequeues is the graceful-drain
// regression test: on a drain whose deadline has passed (injectable —
// the test controls the drain context and the scheduler clock), running
// jobs are cancelled and journaled back to queued, queued jobs are
// checkpointed, and a restart re-executes everything exactly once.
func TestDrainDeadlineCheckpointsAndRequeues(t *testing.T) {
	dir := t.TempDir()
	log1, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	q1 := NewQueue(Options{Log: log1})
	fixed := time.Unix(1700000000, 0).UTC()
	started := make(chan struct{}, 2)
	s1 := NewScheduler(q1, SchedulerOptions{
		Workers: 2,
		Now:     func() time.Time { return fixed },
		Exec: func(ctx context.Context, j Job) (json.RawMessage, *Failure) {
			started <- struct{}{}
			<-ctx.Done() // only the drain's cancellation ends the run
			return nil, &Failure{Code: "canceled", Message: ctx.Err().Error()}
		},
	})
	s1.Start()
	a, _ := q1.Submit(Spec{Type: "mitigate"})
	b, _ := q1.Submit(Spec{Type: "mitigate"})
	<-started
	<-started
	c, _ := q1.Submit(Spec{Type: "mitigate"}) // both workers busy: stays queued

	drainCtx, cancel := context.WithCancel(context.Background())
	cancel() // deadline already passed
	res := s1.Drain(drainCtx)
	if res.Requeued != 2 || res.Finished != 0 {
		t.Fatalf("drain = %+v, want 2 requeued / 0 finished", res)
	}
	st := q1.Stats()
	if st.DrainRequeues != 2 || st.Queued != 3 || st.Running != 0 {
		t.Fatalf("post-drain stats = %+v", st)
	}
	for _, id := range []string{a.ID, b.ID} {
		if j, _ := q1.Get(id); j.State != StateQueued || j.Requeues != 1 {
			t.Fatalf("job %s = %+v, want queued with requeues=1", id, j)
		}
	}
	if j, _ := q1.Get(c.ID); j.State != StateQueued || j.Requeues != 0 {
		t.Fatalf("job %s = %+v", c.ID, j)
	}
	// Drain checkpointed: the snapshot alone must carry all three.
	if ls := log1.Stats(); ls.Snapshots == 0 {
		t.Fatalf("log stats = %+v, drain did not checkpoint", ls)
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: all three run to done exactly once.
	log2, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	q2 := NewQueue(Options{Log: log2})
	if st := q2.Stats(); st.RecoveredJobs != 3 || st.RecoveredRequeued != 0 {
		t.Fatalf("recovery stats = %+v, want 3 recovered / 0 requeued (drain journaled them queued)", st)
	}
	s2 := NewScheduler(q2, SchedulerOptions{
		Workers: 2,
		Exec: func(ctx context.Context, j Job) (json.RawMessage, *Failure) {
			return json.RawMessage(`{}`), nil
		},
	})
	s2.Start()
	for _, id := range []string{a.ID, b.ID, c.ID} {
		waitState(t, q2, id, StateDone)
	}
	if res := s2.Drain(context.Background()); res.Requeued != 0 {
		t.Fatalf("clean drain = %+v", res)
	}
}

// TestDrainGracefulFinish: with no deadline pressure, running jobs
// finish normally and nothing is requeued.
func TestDrainGracefulFinish(t *testing.T) {
	q := NewQueue(Options{})
	started := make(chan struct{}, 2)
	s := NewScheduler(q, SchedulerOptions{
		Workers: 2,
		Exec: func(ctx context.Context, j Job) (json.RawMessage, *Failure) {
			started <- struct{}{}
			time.Sleep(5 * time.Millisecond)
			return json.RawMessage(`{}`), nil
		},
	})
	s.Start()
	a, _ := q.Submit(Spec{Type: "mitigate"})
	b, _ := q.Submit(Spec{Type: "mitigate"})
	<-started
	<-started
	res := s.Drain(context.Background())
	if res.Requeued != 0 {
		t.Fatalf("drain = %+v, want nothing requeued", res)
	}
	for _, id := range []string{a.ID, b.ID} {
		if j, _ := q.Get(id); j.State != StateDone {
			t.Fatalf("job %s = %s after graceful drain, want done", id, j.State)
		}
	}
}

// TestReplaysBatchEraJournal: journals written while the scheduler still
// micro-batched carry spec.batch_key and batch_size. Replay ignores both
// fields: the queued record executes, and the done record stays
// queryable with its result. The records below are byte-for-byte what
// that version's EncodeRecord wrote.
func TestReplaysBatchEraJournal(t *testing.T) {
	dir := t.TempDir()
	const queuedID, doneID = "01K6G3C2R0000000000000000A", "01K6G3C2R0000000000000000B"
	var wal []byte
	for _, rec := range []string{
		`{"seq":1,"job":{"id":"01K6G3C2R0000000000000000A","spec":{"type":"mitigate","tenant":"anon","batch_key":"ibmqx4|5|brute","trace_id":"01K6G3C2R0000000000000000T","payload":{"seed":1}},"state":"queued","submitted_at":"2026-10-01T12:00:00Z","started_at":"0001-01-01T00:00:00Z","finished_at":"0001-01-01T00:00:00Z"}}`,
		`{"seq":2,"job":{"id":"01K6G3C2R0000000000000000B","spec":{"type":"mitigate","tenant":"anon","batch_key":"ibmqx4|5|brute","payload":{"seed":2}},"state":"done","submitted_at":"2026-10-01T12:00:00Z","started_at":"2026-10-01T12:00:01Z","finished_at":"2026-10-01T12:00:02Z","attempts":1,"batch_size":2,"result":{"ok":true}}}`,
	} {
		wal = persist.AppendWALRecord(wal, []byte(rec))
	}
	if err := os.WriteFile(filepath.Join(dir, jobWALFile), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	log, err := OpenLog(dir)
	if err != nil {
		t.Fatalf("replaying a batch-era journal: %v", err)
	}
	defer log.Close()
	q := NewQueue(Options{Log: log})
	if st := q.Stats(); st.RecoveredJobs != 1 || st.Queued != 1 || st.Done != 1 {
		t.Fatalf("recovery stats = %+v, want the queued job live and the done one as history", st)
	}
	s := NewScheduler(q, SchedulerOptions{
		Workers: 1,
		Exec: func(ctx context.Context, j Job) (json.RawMessage, *Failure) {
			return j.Spec.Payload, nil
		},
	})
	s.Start()
	defer s.Drain(context.Background())

	ran := waitState(t, q, queuedID, StateDone)
	if string(ran.Result) != `{"seed":1}` || ran.Attempts != 1 || ran.Spec.TraceID != "01K6G3C2R0000000000000000T" {
		t.Fatalf("replayed queued job = %+v", ran)
	}
	done, ok := q.Get(doneID)
	if !ok || done.State != StateDone || string(done.Result) != `{"ok":true}` || done.Attempts != 1 {
		t.Fatalf("replayed done job = %+v (found %v)", done, ok)
	}
}
