// Package persist serializes the artifacts a long-running mitigation
// workflow wants to keep between sessions: learned RBMS profiles and
// the profile store's snapshots. Everything is versioned JSON inside a
// small typed envelope, so a file's kind is checked before decoding and
// future format changes stay detectable. It also holds the durable
// journal (WAL plus snapshot) that the profile store and the job queue
// share.
//
// AIM's machine profile is explicitly designed to be reusable — the
// paper validates that the bias ordering is stable across calibration
// cycles (§6.1) — so saving an RBMS learned today and loading it for
// tomorrow's runs is the intended workflow.
package persist

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"biasmit/internal/core"
)

// Envelope wraps every persisted artifact with its kind and version.
type Envelope struct {
	Kind    string          `json:"kind"`
	Version int             `json:"version"`
	Payload json.RawMessage `json:"payload"`
}

// Artifact kinds.
const (
	KindRBMS     = "biasmit/rbms"
	KindSnapshot = "biasmit/profile-snapshot"
)

const currentVersion = 1

func save(w io.Writer, kind string, payload interface{}) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("persist: encoding %s payload: %w", kind, err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Envelope{Kind: kind, Version: currentVersion, Payload: raw}); err != nil {
		return fmt.Errorf("persist: writing %s: %w", kind, err)
	}
	return nil
}

func load(r io.Reader, kind string, payload interface{}) error {
	var env Envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return fmt.Errorf("persist: reading envelope: %w", err)
	}
	if env.Kind != kind {
		return fmt.Errorf("persist: file holds %q, expected %q", env.Kind, kind)
	}
	if env.Version != currentVersion {
		return fmt.Errorf("persist: %s version %d not supported (current %d)", kind, env.Version, currentVersion)
	}
	if err := json.Unmarshal(env.Payload, payload); err != nil {
		return fmt.Errorf("persist: decoding %s payload: %w", kind, err)
	}
	return nil
}

// ProfileRecord is the one on-disk form of a learned measurement
// strength profile. Everything that persists a profile — the
// characterize CLI's -out file, the profile store's WAL records, and
// its compacted snapshots — serializes this exact struct, so a profile
// written by any of them is loadable by all of them. Shots and
// LearnedAt are provenance; files from before they existed decode with
// both zero.
type ProfileRecord struct {
	Machine   string    `json:"machine,omitempty"`
	Layout    []int     `json:"layout,omitempty"`
	Method    string    `json:"method,omitempty"`
	Width     int       `json:"width"`
	Strength  []float64 `json:"strength"`
	Shots     int       `json:"shots,omitempty"`
	LearnedAt time.Time `json:"learned_at"`
}

// RBMS reconstructs (and validates) the profile's strength series.
func (p ProfileRecord) RBMS() (core.RBMS, error) {
	rbms, err := core.NewRBMS(p.Width, p.Strength)
	if err != nil {
		return core.RBMS{}, fmt.Errorf("persist: profile record is invalid: %w", err)
	}
	return rbms, nil
}

// SaveProfile writes one profile record inside the standard envelope.
func SaveProfile(w io.Writer, rec ProfileRecord) error {
	return save(w, KindRBMS, rec)
}

// LoadProfile reads one profile record and validates its strengths.
func LoadProfile(r io.Reader) (ProfileRecord, error) {
	var rec ProfileRecord
	if err := load(r, KindRBMS, &rec); err != nil {
		return ProfileRecord{}, err
	}
	if _, err := rec.RBMS(); err != nil {
		return ProfileRecord{}, err
	}
	return rec, nil
}

// ProfileSnapshot is a compacted image of a profile store: every live
// record plus the journal sequence number of the last WAL entry the
// image reflects. Recovery loads the snapshot, then replays only WAL
// entries with a higher sequence number — entries at or below LastSeq
// are already folded in.
type ProfileSnapshot struct {
	LastSeq  uint64          `json:"last_seq"`
	Profiles []ProfileRecord `json:"profiles"`
}

// SaveSnapshot writes a profile-store snapshot.
func SaveSnapshot(w io.Writer, s ProfileSnapshot) error {
	return save(w, KindSnapshot, s)
}

// LoadSnapshot reads a profile-store snapshot. Individual records are
// not validated here; the store validates (and skips) them on load so
// one bad record cannot block recovery of the rest.
func LoadSnapshot(r io.Reader) (ProfileSnapshot, error) {
	var s ProfileSnapshot
	if err := load(r, KindSnapshot, &s); err != nil {
		return ProfileSnapshot{}, err
	}
	return s, nil
}
