package jobs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"biasmit/internal/persist"
)

// FuzzJobRecordCodec throws arbitrary bytes at the job-record decoder.
// Invariants: decoding never panics, anything that decodes carries a
// valid ID and state, and decode → encode → decode is a fixed point.
func FuzzJobRecordCodec(f *testing.F) {
	valid, _ := EncodeRecord(Record{Seq: 3, Job: *testJob("00000000000000000000000000", StateRunning)})
	f.Add([]byte{})
	f.Add(valid)
	f.Add([]byte(`{"seq":1,"job":{"id":"x","state":"queued"}}`))
	f.Add([]byte(`{"seq":1,"job":{"id":"x","state":"nope"}}`))
	f.Add([]byte(`{"seq":-1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		if rec.Job.ID == "" {
			t.Fatal("decoder accepted a record without a job ID")
		}
		switch rec.Job.State {
		case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		default:
			t.Fatalf("decoder accepted unknown state %q", rec.Job.State)
		}
		enc, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("re-encoding a decoded record failed: %v", err)
		}
		rec2, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("decoding a re-encoded record failed: %v", err)
		}
		if rec2.Seq != rec.Seq || rec2.Job.ID != rec.Job.ID || rec2.Job.State != rec.Job.State ||
			rec2.Job.Requeues != rec.Job.Requeues || rec2.Job.Attempts != rec.Job.Attempts {
			t.Fatalf("codec round trip diverged: %+v vs %+v", rec, rec2)
		}
	})
}

// FuzzJobLogReplay feeds arbitrary bytes to the jobs WAL as a whole
// file. Invariants: OpenLog never panics; when it accepts the file, the
// recovered jobs are all well-formed, and compact + reopen reproduces
// the identical job set (recovery is idempotent).
func FuzzJobLogReplay(f *testing.F) {
	recA, _ := EncodeRecord(Record{Seq: 1, Job: *testJob("00000000000000000000000000", StateQueued)})
	recB, _ := EncodeRecord(Record{Seq: 2, Job: *testJob("00000000000000000000000001", StateRunning)})
	one := persist.AppendWALRecord(nil, recA)
	two := persist.AppendWALRecord(one, recB)
	f.Add([]byte{})
	f.Add(one)
	f.Add(two)
	f.Add(two[:len(two)-4])                                   // torn tail
	f.Add(persist.AppendWALRecord(nil, []byte(`{"seq":1}`)))  // frames, fails schema
	f.Add(append(append([]byte{}, one...), 0xDE, 0xAD, 0xBE)) // record + garbage tail
	f.Add(persist.AppendWALRecord(one, recA))                 // duplicate ID: last writer wins

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, jobWALFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLog(dir)
		if err != nil {
			return // a framed-but-invalid record fails the open, by design
		}
		first := l.Records()
		for _, j := range first {
			if j.ID == "" {
				t.Fatal("recovered a job without an ID")
			}
			switch j.State {
			case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
			default:
				t.Fatalf("recovered job %s in unknown state %q", j.ID, j.State)
			}
		}
		if err := l.Close(); err != nil { // compacts into a snapshot
			t.Fatalf("close after replay: %v", err)
		}
		l2, err := OpenLog(dir)
		if err != nil {
			t.Fatalf("reopen after compact: %v", err)
		}
		defer l2.Close()
		second := l2.Records()
		if len(second) != len(first) {
			t.Fatalf("replay not idempotent: %d jobs, then %d", len(first), len(second))
		}
		for i := range first {
			a, _ := EncodeRecord(Record{Job: first[i]})
			b, _ := EncodeRecord(Record{Job: second[i]})
			if !bytes.Equal(a, b) {
				t.Fatalf("job %s changed across compact+reopen", first[i].ID)
			}
		}
	})
}
