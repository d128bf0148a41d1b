package jobs

import (
	"encoding/json"
	"fmt"
	"io"

	"biasmit/internal/persist"
)

// The durable side of the queue is a persist.Journal keyed by job ID,
// the same journal the profile store keeps: every state transition
// appends one full job record to a checksummed WAL (fsync-on-commit),
// and the WAL is periodically folded into an atomically written
// snapshot. This file holds only the on-disk format.
//
// Layout under the jobs directory:
//
//	jobs.snapshot.json  jobSnapshot (atomic temp+rename writes)
//	jobs.wal            length-prefixed CRC32-framed Record payloads

const (
	jobSnapshotFile = "jobs.snapshot.json"
	jobWALFile      = "jobs.wal"

	// jobSnapshotKind/Version guard the snapshot envelope the same way
	// persist.Envelope guards profile artifacts.
	jobSnapshotKind    = "biasmit/jobs-snapshot"
	jobSnapshotVersion = 1
)

// Record is the on-disk form of one job state transition: the full job
// at that moment plus the journal sequence number that orders it
// against snapshots.
type Record struct {
	Seq uint64 `json:"seq"`
	Job Job    `json:"job"`
}

// EncodeRecord serializes one WAL record payload. Exposed (with
// DecodeRecord) so tests and the fuzz target can exercise the codec
// byte-for-byte.
func EncodeRecord(rec Record) ([]byte, error) {
	if rec.Job.ID == "" {
		return nil, fmt.Errorf("jobs: refusing to encode record with empty job ID")
	}
	return json.Marshal(rec)
}

// DecodeRecord parses one WAL record payload, validating the fields
// recovery depends on.
func DecodeRecord(payload []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, fmt.Errorf("jobs: decoding record: %w", err)
	}
	if rec.Job.ID == "" {
		return Record{}, fmt.Errorf("jobs: record has no job ID")
	}
	switch rec.Job.State {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
	default:
		return Record{}, fmt.Errorf("jobs: record %s has unknown state %q", rec.Job.ID, rec.Job.State)
	}
	return rec, nil
}

// jobSnapshot is the compacted image: every live record plus the
// sequence number of the last WAL entry it folds in.
type jobSnapshot struct {
	Kind    string   `json:"kind"`
	Version int      `json:"version"`
	LastSeq uint64   `json:"last_seq"`
	Jobs    []Record `json:"jobs"`
}

type logEntry = persist.Entry[string, Job]

var logFormat = persist.Format[string, Job]{
	WALFile:      jobWALFile,
	SnapshotFile: jobSnapshotFile,
	Key:          func(j Job) string { return j.ID },
	Less:         func(a, b string) bool { return a < b },
	EncodeEntry: func(e logEntry) ([]byte, error) {
		if e.Value == nil {
			return nil, fmt.Errorf("jobs: the job journal records no deletions")
		}
		return EncodeRecord(Record{Seq: e.Seq, Job: *e.Value})
	},
	DecodeEntry: func(payload []byte) (logEntry, error) {
		rec, err := DecodeRecord(payload)
		return logEntry{Seq: rec.Seq, Value: &rec.Job}, err
	},
	WriteSnapshot: func(w io.Writer, lastSeq uint64, live []logEntry) error {
		snap := jobSnapshot{Kind: jobSnapshotKind, Version: jobSnapshotVersion, LastSeq: lastSeq,
			Jobs: make([]Record, len(live))}
		for i, e := range live {
			snap.Jobs[i] = Record{Seq: e.Seq, Job: *e.Value}
		}
		// No indentation: an indented encoder re-formats embedded
		// RawMessage payloads/results, and job result bytes must survive
		// snapshot round-trips untouched.
		return json.NewEncoder(w).Encode(snap)
	},
	ReadSnapshot: func(r io.Reader) (uint64, []logEntry, error) {
		data, err := io.ReadAll(r)
		if err != nil {
			return 0, nil, err
		}
		var snap jobSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return 0, nil, err
		}
		if snap.Kind != jobSnapshotKind {
			return 0, nil, fmt.Errorf("jobs: snapshot holds %q, expected %q", snap.Kind, jobSnapshotKind)
		}
		if snap.Version != jobSnapshotVersion {
			return 0, nil, fmt.Errorf("jobs: snapshot version %d not supported (current %d)", snap.Version, jobSnapshotVersion)
		}
		live := make([]logEntry, len(snap.Jobs))
		for i := range snap.Jobs {
			live[i] = logEntry{Seq: snap.Jobs[i].Seq, Value: &snap.Jobs[i].Job}
		}
		return snap.LastSeq, live, nil
	},
}

// Log journals job transitions to a jobs directory, keyed by job ID. A
// queue without one is memory-only.
type Log = persist.Journal[string, Job]

// OpenLog opens (creating if needed) the jobs directory and
// reconstructs the journaled jobs: snapshot first, then WAL replay.
func OpenLog(dir string) (*Log, error) { return persist.OpenJournal(dir, logFormat) }
