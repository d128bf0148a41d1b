// The profile store's durability engine is a persist.Journal of profile
// puts and deletes, speaking persist.ProfileRecord — the same
// serialization the characterize CLI writes. This file holds only the
// on-disk format; sequencing, replay, compaction and the counters live
// in persist.Journal.
//
// Layout under the data directory:
//
//	snapshot.json  persist.ProfileSnapshot (atomic temp+rename writes)
//	wal.log        length-prefixed CRC32-framed walEntry records
package profilestore

import (
	"encoding/json"
	"fmt"
	"io"

	"biasmit/internal/persist"
)

const (
	snapshotFile = "snapshot.json"
	walFile      = "wal.log"
)

// walEntry is the JSON payload of one WAL record.
type walEntry struct {
	// Op is "put" or "del".
	Op string `json:"op"`
	// Seq orders this entry against snapshots (see persist.Journal).
	Seq uint64 `json:"seq"`
	// Profile is the full record for a put.
	Profile *persist.ProfileRecord `json:"profile,omitempty"`
	// Key identifies the entry for a del.
	Key *Key `json:"key,omitempty"`
}

type diskEntry = persist.Entry[Key, persist.ProfileRecord]

var diskFormat = persist.Format[Key, persist.ProfileRecord]{
	WALFile:      walFile,
	SnapshotFile: snapshotFile,
	Key: func(rec persist.ProfileRecord) Key {
		return Key{Machine: rec.Machine, Width: rec.Width, Method: rec.Method}
	},
	Less: func(a, b Key) bool { return a.String() < b.String() },
	Valid: func(rec persist.ProfileRecord) error {
		_, err := rec.RBMS()
		return err
	},
	EncodeEntry: func(e diskEntry) ([]byte, error) {
		if e.Value == nil {
			return json.Marshal(walEntry{Op: "del", Seq: e.Seq, Key: &e.Key})
		}
		return json.Marshal(walEntry{Op: "put", Seq: e.Seq, Profile: e.Value})
	},
	DecodeEntry: func(payload []byte) (diskEntry, error) {
		var e walEntry
		if err := json.Unmarshal(payload, &e); err != nil {
			return diskEntry{}, fmt.Errorf("decoding entry: %w", err)
		}
		switch {
		case e.Op == "put" && e.Profile != nil:
			return diskEntry{Seq: e.Seq, Value: e.Profile}, nil
		case e.Op == "del" && e.Key != nil:
			return diskEntry{Seq: e.Seq, Key: *e.Key}, nil
		}
		return diskEntry{}, fmt.Errorf("malformed entry op=%q", e.Op)
	},
	WriteSnapshot: func(w io.Writer, lastSeq uint64, live []diskEntry) error {
		snap := persist.ProfileSnapshot{LastSeq: lastSeq, Profiles: make([]persist.ProfileRecord, len(live))}
		for i, e := range live {
			snap.Profiles[i] = *e.Value
		}
		return persist.SaveSnapshot(w, snap)
	},
	ReadSnapshot: func(r io.Reader) (uint64, []diskEntry, error) {
		snap, err := persist.LoadSnapshot(r)
		if err != nil {
			return 0, nil, err
		}
		live := make([]diskEntry, len(snap.Profiles))
		for i := range snap.Profiles {
			live[i].Value = &snap.Profiles[i]
		}
		return snap.LastSeq, live, nil
	},
}

// DiskLog journals profile mutations to a data directory.
type DiskLog = persist.Journal[Key, persist.ProfileRecord]

// OpenDiskLog opens (creating if needed) the data directory and
// reconstructs the journaled profiles: snapshot first, then WAL replay.
func OpenDiskLog(dir string) (*DiskLog, error) { return persist.OpenJournal(dir, diskFormat) }

// RecoveredProfiles converts d's journaled records into store profiles,
// sorted by key — ready for Store.Load.
func RecoveredProfiles(d *DiskLog) []*Profile {
	var out []*Profile
	for _, rec := range d.Records() {
		if p, err := FromRecord(rec); err == nil {
			out = append(out, p)
		}
	}
	return out
}
