package persist

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Journal is a durable map from K to V: a checksummed write-ahead log of
// puts and deletions (WAL, fsync-on-commit) that is periodically folded
// into an atomically written snapshot (WriteFileAtomic). The profile
// store and the async job queue each keep one; a Format supplies what
// differs between them — file names, keys, and the entry and snapshot
// encodings.
//
// Every WAL entry carries a monotonic sequence number, and a snapshot
// records the sequence number of the last entry it folds in (its
// watermark). Recovery loads the snapshot, then replays the WAL in
// append order, skipping entries at or below the watermark, so a crash
// between "snapshot renamed" and "WAL reset" is harmless: the stale
// entries replay as no-ops. Entries carry full records, so replay is
// idempotent (last writer wins). A torn WAL tail — a kill -9
// mid-append — loses at most the entry being appended, never the log;
// an entry that frames intact but does not decode fails the open, since
// dropping a committed entry silently would be data loss.
//
// The journal keeps its own materialized map of the live records, so
// compaction never coordinates with its owner's locks: Compact
// snapshots the map and resets the WAL under the journal's mutex,
// strictly serialized with appends. Methods are safe for concurrent use.
type Journal[K comparable, V any] struct {
	dir    string
	format Format[K, V]

	// mu serializes appends, compaction and state mutation; the fsync per
	// append happens under it.
	mu       sync.Mutex
	wal      *WAL
	seq      uint64
	state    map[K]Entry[K, V]
	recovery Recovery
	appends  uint64
	appendEs uint64
	snaps    uint64
	snapEs   uint64
	closed   bool
}

// Format is everything a Journal needs to know about one kind of
// record.
type Format[K comparable, V any] struct {
	// WALFile and SnapshotFile name the journal's two files inside its
	// directory.
	WALFile, SnapshotFile string
	// Key derives a record's key.
	Key func(V) K
	// Less orders keys. Snapshots and Records list records in this
	// order, so what a journal writes is deterministic.
	Less func(a, b K) bool
	// Valid, when set, vets every recovered record; one that fails is
	// dropped and counted in Recovery.Invalid.
	Valid func(V) error
	// EncodeEntry and DecodeEntry convert one WAL entry to and from its
	// payload. A decoder may leave Key zero for a put: the journal
	// derives it from the record.
	EncodeEntry func(Entry[K, V]) ([]byte, error)
	DecodeEntry func(payload []byte) (Entry[K, V], error)
	// WriteSnapshot and ReadSnapshot convert a compacted image — every
	// live record, in key order, plus lastSeq, the sequence number of
	// the last WAL entry it folds in — to and from the snapshot file.
	WriteSnapshot func(w io.Writer, lastSeq uint64, live []Entry[K, V]) error
	ReadSnapshot  func(r io.Reader) (lastSeq uint64, live []Entry[K, V], err error)
}

// Entry is one journaled mutation, or one live record: Value is the
// full record a put wrote (nil for a deletion, which carries only Key),
// and Seq is the sequence number of the WAL entry that wrote it.
type Entry[K comparable, V any] struct {
	Seq   uint64
	Key   K
	Value *V
}

// Recovery describes what OpenJournal reconstructed.
type Recovery struct {
	// SnapshotRecords is how many records the snapshot held (0 when no
	// snapshot existed).
	SnapshotRecords int
	// WALRecords is how many intact WAL entries were replayed;
	// WALSkipped counts those already folded into the snapshot (sequence
	// at or below its watermark).
	WALRecords int
	WALSkipped int
	// TailTruncated is true when the WAL ended in a torn entry that was
	// dropped — the signature of a crash mid-append.
	TailTruncated bool
	// Records is the live record count after snapshot+WAL replay.
	Records int
	// Invalid counts recovered records that Format.Valid rejected.
	Invalid int
}

// JournalStats is a point-in-time snapshot of a journal's counters, for
// /metrics.
type JournalStats struct {
	Recovery        Recovery
	WALAppends      uint64
	WALAppendErrors uint64
	WALSizeBytes    int64
	Snapshots       uint64
	SnapshotErrors  uint64
	// LiveRecords is the journaled record count.
	LiveRecords int
}

// OpenJournal opens (creating if needed) the journal directory and
// reconstructs the journaled state: snapshot first, then WAL replay.
// The returned journal is ready for appends.
func OpenJournal[K comparable, V any](dir string, format Format[K, V]) (*Journal[K, V], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating journal dir %s: %w", dir, err)
	}
	j := &Journal[K, V]{dir: dir, format: format, state: make(map[K]Entry[K, V])}

	snapPath := filepath.Join(dir, format.SnapshotFile)
	var lastSeq uint64
	if f, err := os.Open(snapPath); err == nil {
		var live []Entry[K, V]
		lastSeq, live, err = format.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("persist: reading %s: %w", snapPath, err)
		}
		for _, e := range live {
			j.restore(e)
		}
		j.recovery.SnapshotRecords = len(live)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("persist: opening %s: %w", snapPath, err)
	}
	j.seq = lastSeq

	wal, rep, err := OpenWAL(filepath.Join(dir, format.WALFile), func(payload []byte) error {
		e, err := format.DecodeEntry(payload)
		if err != nil {
			return err
		}
		j.seq = max(j.seq, e.Seq)
		if e.Seq <= lastSeq {
			j.recovery.WALSkipped++
			return nil
		}
		j.restore(e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	j.wal = wal
	j.recovery.WALRecords = rep.Records
	j.recovery.TailTruncated = rep.Truncated
	j.recovery.Records = len(j.state)
	return j, nil
}

// restore folds one recovered entry into the state map, dropping (and
// counting) records that no longer validate.
func (j *Journal[K, V]) restore(e Entry[K, V]) {
	if e.Value == nil {
		delete(j.state, e.Key)
		return
	}
	if j.format.Valid != nil && j.format.Valid(*e.Value) != nil {
		j.recovery.Invalid++
		return
	}
	e.Key = j.format.Key(*e.Value)
	j.state[e.Key] = e
}

// Put journals one record. The entry is on disk and fsynced when Put
// returns nil.
func (j *Journal[K, V]) Put(v V) error {
	return j.append(Entry[K, V]{Key: j.format.Key(v), Value: &v})
}

// Delete journals the removal of key.
func (j *Journal[K, V]) Delete(key K) error {
	return j.append(Entry[K, V]{Key: key})
}

func (j *Journal[K, V]) append(e Entry[K, V]) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("persist: journal %s is closed", j.dir)
	}
	e.Seq = j.seq + 1
	payload, err := j.format.EncodeEntry(e)
	if err == nil {
		err = j.wal.Append(payload)
	}
	if err != nil {
		j.appendEs++
		return err
	}
	j.seq = e.Seq
	j.appends++
	if e.Value == nil {
		delete(j.state, e.Key)
	} else {
		j.state[e.Key] = e
	}
	return nil
}

// Forget journals nothing but drops key from the live state, so the
// next compaction stops carrying it — for records their owner retires
// without needing the retirement to survive a crash.
func (j *Journal[K, V]) Forget(key K) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.state, key)
}

// Records returns the live records in key order.
func (j *Journal[K, V]) Records() []V {
	j.mu.Lock()
	defer j.mu.Unlock()
	live := j.sortedLocked()
	out := make([]V, len(live))
	for i, e := range live {
		out[i] = *e.Value
	}
	return out
}

func (j *Journal[K, V]) sortedLocked() []Entry[K, V] {
	live := make([]Entry[K, V], 0, len(j.state))
	for _, e := range j.state {
		live = append(live, e)
	}
	sort.Slice(live, func(a, b int) bool { return j.format.Less(live[a].Key, live[b].Key) })
	return live
}

// Compact folds the live state into a fresh snapshot (written
// atomically) and empties the WAL. Crash-safe at every step: until the
// rename lands the old snapshot+WAL still reconstruct the state, and
// after it lands the stale WAL entries are skipped by sequence number.
func (j *Journal[K, V]) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("persist: journal %s is closed", j.dir)
	}
	live := j.sortedLocked()
	err := WriteFileAtomic(filepath.Join(j.dir, j.format.SnapshotFile), func(w io.Writer) error {
		return j.format.WriteSnapshot(w, j.seq, live)
	})
	if err == nil {
		err = j.wal.Reset()
	}
	if err != nil {
		j.snapEs++
		return err
	}
	j.snaps++
	return nil
}

// CompactLoop calls Compact every interval until ctx ends. Errors are
// absorbed (and counted in Stats); the next tick retries.
func (j *Journal[K, V]) CompactLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = j.Compact()
		}
	}
}

// Stats snapshots the journal's counters.
func (j *Journal[K, V]) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{
		Recovery:        j.recovery,
		WALAppends:      j.appends,
		WALAppendErrors: j.appendEs,
		WALSizeBytes:    j.wal.Size(),
		Snapshots:       j.snaps,
		SnapshotErrors:  j.snapEs,
		LiveRecords:     len(j.state),
	}
}

// Close compacts once more (best effort: a failure leaves the WAL to
// replay on the next boot, which is exactly its job) and releases the
// journal. Later calls return nil.
func (j *Journal[K, V]) Close() error {
	_ = j.Compact()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.wal.Close()
}
