package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"biasmit/internal/persist"
)

func testJob(id string, st State) *Job {
	return &Job{
		ID:          id,
		Spec:        Spec{Type: "mitigate", Tenant: "anon", Payload: json.RawMessage(`{"shots":100}`)},
		State:       st,
		SubmittedAt: time.Unix(1700000000, 0).UTC(),
	}
}

func TestLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := testJob("00000000000000000000000000", StateQueued)
	b := testJob("00000000000000000000000001", StateQueued)
	for _, j := range []*Job{a, b} {
		if err := l.Put(*j); err != nil {
			t.Fatal(err)
		}
	}
	b.State = StateDone
	b.Result = json.RawMessage(`{"ok":true}`)
	if err := l.Put(*b); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := l2.Records()
	if len(got) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(got))
	}
	if got[0].ID != a.ID || got[0].State != StateQueued {
		t.Fatalf("job a = %+v", got[0])
	}
	if got[1].ID != b.ID || got[1].State != StateDone || string(got[1].Result) != `{"ok":true}` {
		t.Fatalf("job b = %+v", got[1])
	}
	// Close compacted, so the reopen came from the snapshot.
	if rec := l2.Stats().Recovery; rec.SnapshotRecords != 2 || rec.WALRecords != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
}

func TestLogTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put(*testJob("00000000000000000000000000", StateQueued)); err != nil {
		t.Fatal(err)
	}
	// Leave the WAL un-compacted and simulate a crash mid-append: a
	// partial frame at the tail.
	walPath := filepath.Join(dir, jobWALFile)
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xDE, 0xAD, 0xBE}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := OpenLog(dir)
	if err != nil {
		t.Fatalf("torn tail must not fail the open: %v", err)
	}
	defer l2.Close()
	rec := l2.Stats().Recovery
	if !rec.TailTruncated {
		t.Fatalf("recovery = %+v, want TailTruncated", rec)
	}
	if rec.WALRecords != 1 || rec.Records != 1 {
		t.Fatalf("recovery = %+v, want the intact record preserved", rec)
	}
}

func TestLogSnapshotWatermark(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{
		"00000000000000000000000000",
		"00000000000000000000000001",
		"00000000000000000000000002",
	} {
		st := StateQueued
		if i == 0 {
			st = StateDone
		}
		if err := l.Put(*testJob(id, st)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(*testJob("00000000000000000000000003", StateQueued)); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window where the snapshot exists but the WAL was
	// not reset: replay must skip entries at or below the watermark.
	if st := l.Stats(); st.Snapshots != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Abandon l without Close (no final compact) and reopen.
	l2, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rec := l2.Stats().Recovery
	if rec.SnapshotRecords != 3 || rec.WALRecords != 1 || rec.Records != 4 {
		t.Fatalf("recovery = %+v, want 3 snapshot jobs + 1 WAL record = 4", rec)
	}
	if rec.WALSkipped != 0 {
		t.Fatalf("recovery = %+v: compact reset the WAL, nothing to skip", rec)
	}
}

func TestLogForgetDropsFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put(*testJob("00000000000000000000000000", StateDone)); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(*testJob("00000000000000000000000001", StateQueued)); err != nil {
		t.Fatal(err)
	}
	l.Forget("00000000000000000000000000")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := l2.Records()
	if len(got) != 1 || got[0].ID != "00000000000000000000000001" {
		t.Fatalf("recovered = %+v, want only the un-forgotten job", got)
	}
}

func TestRecordCodecValidation(t *testing.T) {
	if _, err := EncodeRecord(Record{Seq: 1}); err == nil {
		t.Fatal("EncodeRecord accepted an empty job ID")
	}
	if _, err := DecodeRecord([]byte(`{`)); err == nil {
		t.Fatal("DecodeRecord accepted malformed JSON")
	}
	if _, err := DecodeRecord([]byte(`{"seq":1,"job":{"state":"queued"}}`)); err == nil {
		t.Fatal("DecodeRecord accepted a record without a job ID")
	}
	if _, err := DecodeRecord([]byte(`{"seq":1,"job":{"id":"x","state":"pondering"}}`)); err == nil {
		t.Fatal("DecodeRecord accepted an unknown state")
	}
	payload, err := EncodeRecord(Record{Seq: 7, Job: *testJob("00000000000000000000000000", StateRunning)})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 7 || rec.Job.State != StateRunning {
		t.Fatalf("round-trip = %+v", rec)
	}
}

func TestLogPreservesTraceID(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := testJob("00000000000000000000000000", StateQueued)
	j.Spec.TraceID = "01AAAAAAAAAAAAAAAAAAAAAAAA"
	if err := l.Put(*j); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The trace ID rides the journaled spec through close/compact and
	// reopen — a job recovered after a crash keeps the trace its
	// submitter saw.
	l2, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := l2.Records()
	if len(got) != 1 || got[0].Spec.TraceID != j.Spec.TraceID {
		t.Fatalf("recovered %+v, want spec trace ID %q", got, j.Spec.TraceID)
	}
}

// TestReplaysParentJobSnapshot: testdata/parent-jobs.snapshot.json is
// byte-for-byte what the job journal wrote before it became a
// persist.Journal (three jobs: queued, done, failed). It replays to
// exactly those jobs, and compacting them rewrites the same bytes.
func TestReplaysParentJobSnapshot(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent-jobs.snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, jobSnapshotFile), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec := l.Stats().Recovery; rec != (persist.Recovery{SnapshotRecords: 3, Records: 3}) {
		t.Fatalf("recovery = %+v, want a 3-job snapshot", rec)
	}
	t0 := time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)
	deadline := t0.Add(time.Minute)
	want := []Job{{
		ID:          "01K6G3C2R0000000000000000A",
		Spec:        Spec{Type: "mitigate", Tenant: "team-a", Priority: 1, TraceID: "01K6G3C2R0000000000000000T", Payload: json.RawMessage(`{"machine":"ibmqx4","seed":1}`)},
		State:       StateQueued,
		SubmittedAt: t0,
	}, {
		ID:          "01K6G3C2R0000000000000000B",
		Spec:        Spec{Type: "characterize", Tenant: "anon", MaxAttempts: 3, Deadline: &deadline, Payload: json.RawMessage(`{"machine":"ibmqx2"}`)},
		State:       StateDone,
		SubmittedAt: t0,
		StartedAt:   t0.Add(time.Second),
		FinishedAt:  t0.Add(2 * time.Second),
		Attempts:    1,
		Result:      json.RawMessage(`{"profile":{"cached":false}}`),
	}, {
		ID:          "01K6G3C2R0000000000000000C",
		Spec:        Spec{Type: "mitigate", Tenant: "anon", Payload: json.RawMessage(`{"seed":3}`)},
		State:       StateFailed,
		SubmittedAt: t0,
		StartedAt:   t0.Add(time.Second),
		FinishedAt:  t0.Add(3 * time.Second),
		Attempts:    1,
		Requeues:    1,
		Failure:     &Failure{Code: "upstream_transient", Message: "backend fault", Status: 503, Retryable: true, RetryAfterMS: 250},
	}}
	if got := l.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered\n%+v\nwant\n%+v", got, want)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, jobSnapshotFile)); err != nil || !bytes.Equal(got, fixture) {
		t.Fatalf("compacted snapshot differs from the parent's (err %v):\n%s", err, got)
	}
}
