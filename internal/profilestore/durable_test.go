package profilestore

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"biasmit/internal/persist"
)

// openLog opens a DiskLog, failing the test on error.
func openLog(t *testing.T, dir string) *DiskLog {
	t.Helper()
	d, err := OpenDiskLog(dir)
	if err != nil {
		t.Fatalf("OpenDiskLog(%s): %v", dir, err)
	}
	return d
}

// testKey returns a distinct key per machine suffix.
func testKey(machine string, width int) Key {
	return Key{Machine: machine, Width: width, Method: "brute"}
}

// durableStore builds a journaled store whose characterizations are
// instant uniform profiles with a call counter.
func durableStore(t *testing.T, d *DiskLog, clock *fakeClock, calls *atomic.Int64) *Store {
	t.Helper()
	return New(func(ctx context.Context, k Key) (*Profile, error) {
		n := calls.Add(1)
		return uniformProfile(k, float64(n)), nil
	}, Options{TTL: time.Hour, Now: clock.now, Journal: d})
}

// TestDiskLogCrashRecovery is the core round trip: journaled puts and
// deletes survive a "crash" (the log is simply abandoned, never closed
// or compacted) and reconstruct from the WAL alone.
func TestDiskLogCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	var calls atomic.Int64

	d1 := openLog(t, dir)
	s1 := durableStore(t, d1, clock, &calls)
	keyA, keyB, keyC := testKey("qa", 3), testKey("qb", 2), testKey("qc", 1)
	for _, k := range []Key{keyA, keyB, keyC} {
		if _, _, err := s1.GetOrCharacterize(context.Background(), k); err != nil {
			t.Fatal(err)
		}
	}
	if err := d1.Delete(keyC); err != nil {
		t.Fatal(err)
	}
	var want []*Profile
	for _, p := range s1.Profiles() {
		if p.Key != keyC {
			want = append(want, p)
		}
	}
	// No Close, no Compact: the process "dies" here.

	d2 := openLog(t, dir)
	rec := d2.Stats().Recovery
	if rec.SnapshotRecords != 0 || rec.WALRecords != 4 || rec.TailTruncated || rec.Records != 2 {
		t.Fatalf("recovery %+v, want 4 WAL records -> 2 profiles, no snapshot, clean tail", rec)
	}
	got := RecoveredProfiles(d2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d profiles, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key ||
			!got[i].LearnedAt.Equal(want[i].LearnedAt) ||
			!reflect.DeepEqual(got[i].RBMS.Strength, want[i].RBMS.Strength) ||
			got[i].Shots != want[i].Shots {
			t.Fatalf("profile %d: got %+v, want %+v", i, got[i], want[i])
		}
	}

	// A store warm-loaded from the recovery serves without characterizing.
	s2 := durableStore(t, d2, clock, &calls)
	if n := s2.Load(RecoveredProfiles(d2)); n != 2 {
		t.Fatalf("Load = %d, want 2", n)
	}
	before := calls.Load()
	p, cached, err := s2.GetOrCharacterize(context.Background(), keyA)
	if err != nil || !cached {
		t.Fatalf("warm lookup: cached=%v err=%v", cached, err)
	}
	checkUniform(t, p)
	if calls.Load() != before {
		t.Fatal("warm restart still re-characterized")
	}
}

func TestDiskLogCompactThenMoreWrites(t *testing.T) {
	dir := t.TempDir()
	d1 := openLog(t, dir)
	a := RecordOf(uniformProfileWithKey(testKey("qa", 2), 1))
	b := RecordOf(uniformProfileWithKey(testKey("qb", 2), 2))
	c := RecordOf(uniformProfileWithKey(testKey("qc", 2), 3))
	if err := d1.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := d1.Put(b); err != nil {
		t.Fatal(err)
	}
	if err := d1.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d1.Put(c); err != nil {
		t.Fatal(err)
	}
	if err := d1.Delete(testKey("qa", 2)); err != nil {
		t.Fatal(err)
	}

	d2 := openLog(t, dir)
	rec := d2.Stats().Recovery
	if rec.SnapshotRecords != 2 || rec.WALRecords != 2 || rec.WALSkipped != 0 || rec.Records != 2 {
		t.Fatalf("recovery %+v, want snapshot=2 + wal=2 -> profiles {qb,qc}", rec)
	}
	got := RecoveredProfiles(d2)
	if len(got) != 2 || got[0].Key.Machine != "qb" || got[1].Key.Machine != "qc" {
		t.Fatalf("recovered %v", got)
	}
}

// TestDiskLogTornTailTolerated appends a partial frame (as a kill -9
// mid-append would) and checks recovery still starts, serving every
// record before the tear.
func TestDiskLogTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	d1 := openLog(t, dir)
	if err := d1.Put(RecordOf(uniformProfileWithKey(testKey("qa", 2), 1))); err != nil {
		t.Fatal(err)
	}
	if err := d1.Put(RecordOf(uniformProfileWithKey(testKey("qb", 2), 2))); err != nil {
		t.Fatal(err)
	}

	// Torn frame: a full header claiming 64 payload bytes, only 5 written.
	frame := persist.AppendWALRecord(nil, make([]byte, 64))[:13]
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2 := openLog(t, dir)
	rec := d2.Stats().Recovery
	if !rec.TailTruncated {
		t.Fatalf("recovery %+v, want TailTruncated", rec)
	}
	if rec.Records != 2 || rec.WALRecords != 2 {
		t.Fatalf("recovery %+v, want both pre-tear profiles", rec)
	}
	// The log is healed: appends and another reopen stay clean.
	if err := d2.Put(RecordOf(uniformProfileWithKey(testKey("qc", 2), 3))); err != nil {
		t.Fatal(err)
	}
	d3 := openLog(t, dir)
	if rec := d3.Stats().Recovery; rec.TailTruncated || rec.Records != 3 {
		t.Fatalf("post-heal recovery %+v, want 3 profiles, clean tail", rec)
	}
}

// TestDiskLogEmptyWALWithSnapshot: a clean shutdown leaves a snapshot
// and an empty WAL; recovery must come entirely from the snapshot.
func TestDiskLogEmptyWALWithSnapshot(t *testing.T) {
	dir := t.TempDir()
	d1 := openLog(t, dir)
	if err := d1.Put(RecordOf(uniformProfileWithKey(testKey("qa", 3), 1))); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil { // Close compacts
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || st.Size() != 0 {
		t.Fatalf("WAL after clean close: size=%v err=%v, want empty", st, err)
	}

	d2 := openLog(t, dir)
	rec := d2.Stats().Recovery
	if rec.SnapshotRecords != 1 || rec.WALRecords != 0 || rec.Records != 1 {
		t.Fatalf("recovery %+v, want snapshot-only single profile", rec)
	}
}

// TestDiskLogSnapshotNewerThanWAL simulates a crash between the
// snapshot rename and the WAL reset: the WAL still holds entries the
// snapshot already folded in. Replay must skip them by sequence number
// so the snapshot's (newer) contents win.
func TestDiskLogSnapshotNewerThanWAL(t *testing.T) {
	dir := t.TempDir()
	d1 := openLog(t, dir)
	stale := RecordOf(uniformProfileWithKey(testKey("qa", 2), 1))
	fresh := RecordOf(uniformProfileWithKey(testKey("qa", 2), 9))
	if err := d1.Put(stale); err != nil {
		t.Fatal(err)
	}
	if err := d1.Put(fresh); err != nil {
		t.Fatal(err)
	}
	if err := d1.Compact(); err != nil {
		t.Fatal(err)
	}

	// Re-create the pre-compaction WAL by hand: entries seq 1 and 2, both
	// at or below the snapshot watermark (2).
	var buf []byte
	for seq, rec := range map[uint64]persist.ProfileRecord{1: stale, 2: fresh} {
		r := rec
		payload, err := json.Marshal(walEntry{Op: "put", Seq: seq, Profile: &r})
		if err != nil {
			t.Fatal(err)
		}
		buf = persist.AppendWALRecord(buf, payload)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := openLog(t, dir)
	rec := d2.Stats().Recovery
	if rec.WALRecords != 2 || rec.WALSkipped != 2 || rec.Records != 1 {
		t.Fatalf("recovery %+v, want both WAL entries skipped", rec)
	}
	got := RecoveredProfiles(d2)
	if len(got) != 1 || got[0].RBMS.Strength[0] != 9 {
		t.Fatalf("recovered %+v, want the snapshot's strength-9 profile", got)
	}
	// New appends must not collide with the skipped sequence numbers.
	if err := d2.Put(RecordOf(uniformProfileWithKey(testKey("qb", 2), 3))); err != nil {
		t.Fatal(err)
	}
	d3 := openLog(t, dir)
	if rec := d3.Stats().Recovery; rec.Records != 2 || rec.WALSkipped != 2 {
		t.Fatalf("post-append recovery %+v, want 2 profiles", rec)
	}
}

// uniformProfileWithKey is uniformProfile with the key and a learned
// time filled in, for direct DiskLog puts.
func uniformProfileWithKey(key Key, v float64) *Profile {
	p := uniformProfile(key, v)
	p.Key = key
	p.LearnedAt = time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)
	return p
}

// TestStoreImportJournals: an imported (preloaded) profile serves and
// survives restart.
func TestStoreImportJournals(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	var calls atomic.Int64
	d := openLog(t, dir)
	s := durableStore(t, d, clock, &calls)

	key := testKey("imported", 3)
	if err := s.Import(uniformProfileWithKey(key, 5)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("imported profile not served")
	}
	if calls.Load() != 0 {
		t.Fatal("import triggered a characterization")
	}

	d2 := openLog(t, dir)
	if got := RecoveredProfiles(d2); len(got) != 1 || got[0].Key != key {
		t.Fatalf("recovered %v, want the imported profile", got)
	}
}

// The parent-format fixtures below are byte-for-byte what the profile
// journal wrote before it became a persist.Journal: three WAL entries
// (put A, put B, del A), and testdata/parent-snapshot.json, compacted
// after a further put of A'.
var (
	parentA = persist.ProfileRecord{Machine: "ibmqx4", Layout: []int{0, 1}, Method: "brute", Width: 2,
		Strength: []float64{1, 0.875, 0.9375, 0.75}, Shots: 256, LearnedAt: time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)}
	parentB = persist.ProfileRecord{Machine: "ibmqx2", Layout: []int{2, 1, 0}, Method: "awct", Width: 3,
		Strength: []float64{1, 0.5, 0.625, 0.25, 0.75, 0.375, 0.5, 0.125}, Shots: 512, LearnedAt: time.Date(2026, 10, 1, 13, 0, 0, 0, time.UTC)}
	parentA2 = persist.ProfileRecord{Machine: "ibmqx4", Layout: []int{0, 1}, Method: "brute", Width: 2,
		Strength: []float64{1, 0.8125, 0.9375, 0.6875}, Shots: 256, LearnedAt: time.Date(2026, 10, 1, 14, 0, 0, 0, time.UTC)}
	parentWAL = []string{
		`{"op":"put","seq":1,"profile":{"machine":"ibmqx4","layout":[0,1],"method":"brute","width":2,"strength":[1,0.875,0.9375,0.75],"shots":256,"learned_at":"2026-10-01T12:00:00Z"}}`,
		`{"op":"put","seq":2,"profile":{"machine":"ibmqx2","layout":[2,1,0],"method":"awct","width":3,"strength":[1,0.5,0.625,0.25,0.75,0.375,0.5,0.125],"shots":512,"learned_at":"2026-10-01T13:00:00Z"}}`,
		`{"op":"del","seq":3,"key":{"machine":"ibmqx4","width":2,"method":"brute"}}`,
	}
)

// profileOf is the store profile a valid record recovers to.
func profileOf(t *testing.T, rec persist.ProfileRecord) *Profile {
	t.Helper()
	p, err := FromRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReplaysParentFormatWAL: a parent-format WAL replays to exactly
// profile B, and journaling the same three mutations today writes the
// same bytes, so the parent can replay them too.
func TestReplaysParentFormatWAL(t *testing.T) {
	dir := t.TempDir()
	var wal []byte
	for _, payload := range parentWAL {
		wal = persist.AppendWALRecord(wal, []byte(payload))
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	d := openLog(t, dir)
	if rec := d.Stats().Recovery; rec != (persist.Recovery{WALRecords: 3, Records: 1}) {
		t.Fatalf("recovery %+v, want 3 WAL records -> 1 profile", rec)
	}
	if got, want := RecoveredProfiles(d), []*Profile{profileOf(t, parentB)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}

	fresh := t.TempDir()
	d2 := openLog(t, fresh)
	for _, err := range []error{d2.Put(parentA), d2.Put(parentB), d2.Delete(testKey("ibmqx4", 2))} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, err := os.ReadFile(filepath.Join(fresh, "wal.log")); err != nil || !bytes.Equal(got, wal) {
		t.Fatalf("journaled WAL differs from the parent's (err %v):\n%q\nwant\n%q", err, got, wal)
	}
}

// TestReplaysParentFormatSnapshot: a parent-written snapshot replays to
// exactly its two profiles, and compacting them rewrites the same
// bytes.
func TestReplaysParentFormatSnapshot(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent-snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	d := openLog(t, dir)
	if rec := d.Stats().Recovery; rec != (persist.Recovery{SnapshotRecords: 2, Records: 2}) {
		t.Fatalf("recovery %+v, want a 2-profile snapshot", rec)
	}
	want := []*Profile{profileOf(t, parentB), profileOf(t, parentA2)}
	if got := RecoveredProfiles(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "snapshot.json")); err != nil || !bytes.Equal(got, fixture) {
		t.Fatalf("compacted snapshot differs from the parent's (err %v):\n%s", err, got)
	}
}
