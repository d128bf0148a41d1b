// Package profilestore caches learned RBMS profiles between mitigation
// runs, so a machine is characterized once instead of once per request
// — the reuse the paper explicitly validates (§6.1: the bias ordering
// is stable across calibration cycles) and the reason AIM's profiling
// cost amortizes.
//
// The store is the serving layer's memory: profiles are keyed by
// (machine, register width, characterization method) and learned on
// demand. A key's profile changes only when something characterizes it
// again: a forced characterization, an import, or the warm-restart
// load; a profile never expires. Concurrent requests for the same
// missing profile are deduplicated singleflight-style — one
// internal/flight flight runs the characterization circuits, every
// caller waits for its result on its own context — so a burst of AIM
// requests after a restart triggers exactly one characterization per
// key, and no caller's hang-up fails the others.
//
// Profiles are immutable once published: a re-characterization builds
// the new profile off to the side and swaps the pointer under the store
// lock, so a reader can never observe a half-written profile. The key
// space is finite (machine × register width × method), so the store
// needs no bound.
package profilestore

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"biasmit/internal/core"
	"biasmit/internal/flight"
	"biasmit/internal/persist"
)

// Key identifies one cached profile: a machine name, the width of the
// characterized register, and the characterization method ("brute",
// "esct", or "awct").
type Key struct {
	Machine string `json:"machine"`
	Width   int    `json:"width"`
	Method  string `json:"method"`
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%dq/%s", k.Machine, k.Width, k.Method)
}

// Profile is one immutable characterization result. The store hands the
// same *Profile to every caller; nothing mutates it after publication.
type Profile struct {
	Key       Key
	RBMS      core.RBMS
	Layout    []int // physical qubits the profile was learned on
	Shots     int   // trials per state/window spent learning it
	LearnedAt time.Time
	// Gen is the key's generation this profile was published under,
	// stamped by the store before any reader can see the profile. It is
	// not part of the on-disk record.
	Gen uint64
}

// CharacterizeFunc learns a fresh profile for key by running the actual
// characterization circuits. It is called by at most one goroutine per
// key at a time, on a context that carries the first caller's values
// but not its cancellation or deadline; the store fills in Key and
// LearnedAt if left zero.
type CharacterizeFunc func(ctx context.Context, key Key) (*Profile, error)

// RecordOf converts a profile to its on-disk record form — the shared
// serialization (persist.ProfileRecord) that the WAL, snapshots, and
// the characterize CLI all speak.
func RecordOf(p *Profile) persist.ProfileRecord {
	return persist.ProfileRecord{
		Machine:   p.Key.Machine,
		Method:    p.Key.Method,
		Width:     p.RBMS.Width,
		Layout:    p.Layout,
		Shots:     p.Shots,
		LearnedAt: p.LearnedAt,
		Strength:  p.RBMS.Strength,
	}
}

// FromRecord reconstructs (and validates) a profile from its on-disk
// record form.
func FromRecord(rec persist.ProfileRecord) (*Profile, error) {
	rbms, err := rec.RBMS()
	if err != nil {
		return nil, err
	}
	return &Profile{
		Key:       Key{Machine: rec.Machine, Width: rec.Width, Method: rec.Method},
		RBMS:      rbms,
		Layout:    rec.Layout,
		Shots:     rec.Shots,
		LearnedAt: rec.LearnedAt,
	}, nil
}

// Options configures a Store.
type Options struct {
	// Journal, when non-nil, records every published profile durably,
	// before it becomes visible to readers (write-ahead). A journal
	// error never fails the serving path — the in-memory store stays
	// correct and the error is counted in Stats.JournalErrors —
	// because losing durability is strictly better than losing
	// availability for a cache that can re-learn its contents.
	Journal *DiskLog
	// Now overrides the clock, for tests.
	Now func() time.Time
}

// Stats counts cache outcomes since the store was created. Hits and
// Misses partition lookups; Joined counts callers deduplicated onto an
// in-flight characterization.
type Stats struct {
	Hits               uint64
	Misses             uint64
	Joined             uint64
	Characterizations  uint64
	CharacterizeErrors uint64
	// JournalErrors counts journal writes that failed (the in-memory
	// store kept serving).
	JournalErrors uint64
	Entries       int
}

// Store is a concurrency-safe profile cache. Construct with New.
type Store struct {
	characterize CharacterizeFunc
	journal      *DiskLog
	now          func() time.Time
	flights      flight.Group[Key, *Profile]

	mu       sync.Mutex
	profiles map[Key]*Profile
	gens     map[Key]uint64 // bumped whenever a profile is published under a key
	stats    Stats
}

// New returns a store that learns missing profiles with characterize.
func New(characterize CharacterizeFunc, opt Options) *Store {
	if opt.Now == nil {
		opt.Now = time.Now
	}
	return &Store{
		characterize: characterize,
		journal:      opt.Journal,
		now:          opt.Now,
		profiles:     make(map[Key]*Profile),
		gens:         make(map[Key]uint64),
	}
}

// Age returns how old the profile is on the store's clock.
func (s *Store) Age(p *Profile) time.Duration { return s.now().Sub(p.LearnedAt) }

// Get returns the cached profile for key if one exists, without
// triggering characterization. Lookups are counted in Stats.
func (s *Store) Get(key Key) (*Profile, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.profiles[key]
	if p == nil {
		s.stats.Misses++
		return nil, false
	}
	s.stats.Hits++
	return p, true
}

// Serve returns the cached profile for key, learning it first if none
// is cached. The second result reports whether the profile came from
// cache. Concurrent callers for the same key share one
// characterization, each waiting on its own ctx; a caller whose ctx
// ends gets its ctx error while the characterization runs on for the
// rest. A characterization failure is returned to every waiter and
// nothing is cached.
func (s *Store) Serve(ctx context.Context, key Key) (*Profile, bool, error) {
	s.mu.Lock()
	if p := s.profiles[key]; p != nil {
		s.stats.Hits++
		s.mu.Unlock()
		return p, true, nil
	}
	s.stats.Misses++
	p, err := s.characterizeLocked(ctx, key)
	return p, false, err
}

// Characterize forces a fresh characterization for key regardless of
// cache state, joining an already in-flight one if present.
func (s *Store) Characterize(ctx context.Context, key Key) (*Profile, error) {
	s.mu.Lock()
	return s.characterizeLocked(ctx, key)
}

// characterizeLocked joins key's in-flight characterization or starts
// one, releases s.mu (which the caller holds), and waits on ctx.
// Joining under s.mu is what keeps a burst to one characterization: the
// flight publishes under s.mu before it retires, so a caller that
// missed the cache finds the flight.
func (s *Store) characterizeLocked(ctx context.Context, key Key) (*Profile, error) {
	c, joined := s.flights.Do(ctx, key, s.learn(key), s.settle)
	if joined {
		s.stats.Joined++
	}
	s.mu.Unlock()
	return c.Wait(ctx)
}

// learn runs the characterization for key as its flight, outside s.mu.
// The finished profile is journaled before settle publishes it:
// durability before visibility, so a crash can never lose a profile a
// caller was already told about. A journal failure is counted, not
// fatal — see Options.Journal.
func (s *Store) learn(key Key) func(context.Context) (*Profile, error) {
	return func(ctx context.Context) (*Profile, error) {
		p, err := s.characterize(ctx, key)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("profilestore: characterize returned no profile for %s", key)
		}
		q := *p // publish a copy so the CharacterizeFunc can't mutate it later
		q.Key = key
		if q.LearnedAt.IsZero() {
			q.LearnedAt = s.now()
		}
		if s.journal != nil && s.journal.Put(RecordOf(&q)) != nil {
			s.mu.Lock()
			s.stats.JournalErrors++
			s.mu.Unlock()
		}
		return &q, nil
	}
}

// settle publishes a finished characterization, swapping it into the
// cache under the lock — readers only ever see the old pointer or the
// complete new one — or counts its failure, leaving any previously
// cached profile untouched.
func (s *Store) settle(p *Profile, err error) (*Profile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.stats.CharacterizeErrors++
		return p, err
	}
	s.publishLocked(p)
	s.stats.Characterizations++
	return p, nil
}

// publishLocked bumps p's key's generation, stamps it on p and
// installs p under its key: the one path every profile takes into the
// cache. p must not be visible to any reader yet. Caller holds s.mu.
func (s *Store) publishLocked(p *Profile) {
	s.gens[p.Key]++
	p.Gen = s.gens[p.Key]
	s.profiles[p.Key] = p
}

// Load seeds the store with already-durable profiles (crash recovery)
// without journaling them again, and takes ownership of them; a later
// profile for a key replaces an earlier one. Returns how many profiles
// were installed.
func (s *Store) Load(profiles []*Profile) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range profiles {
		s.publishLocked(p)
	}
	return len(profiles)
}

// Import journals and publishes an externally learned profile — e.g. a
// file written by `characterize -out` preloaded at boot. The profile
// must carry a usable Key (Machine and Method; a zero Width is filled
// from the RBMS); a zero LearnedAt becomes now. The returned error is
// the journal's, if any — the profile is serving in memory either way.
func (s *Store) Import(p *Profile) error {
	if p == nil {
		return fmt.Errorf("profilestore: nil profile")
	}
	q := *p
	if q.Key.Width == 0 {
		q.Key.Width = q.RBMS.Width
	}
	if q.Key.Machine == "" || q.Key.Method == "" || q.Key.Width != q.RBMS.Width {
		return fmt.Errorf("profilestore: profile has unusable key %s (RBMS width %d)", q.Key, q.RBMS.Width)
	}
	if q.LearnedAt.IsZero() {
		q.LearnedAt = s.now()
	}
	var jerr error
	if s.journal != nil {
		jerr = s.journal.Put(RecordOf(&q))
	}
	s.mu.Lock()
	s.publishLocked(&q)
	if jerr != nil {
		s.stats.JournalErrors++
	}
	s.mu.Unlock()
	return jerr
}

// Generation returns the profile generation of key: a monotonic
// counter bumped every time a profile is published under that key
// (characterize, import, warm-restart load), and the Gen of the key's
// current profile. Downstream result caches store each result under
// the Gen of the profile it consumed and discard the entry once the
// key's generation moves past it — a re-characterized profile can
// never be paired with results computed against its predecessor. Keys
// never published report 0.
func (s *Store) Generation(key Key) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gens[key]
}

// Profiles returns a snapshot of every cached profile, sorted by key.
func (s *Store) Profiles() []*Profile {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Profile, 0, len(s.profiles))
	for _, p := range s.profiles {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// StatsSnapshot returns the current counters plus the live entry count.
func (s *Store) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.profiles)
	return st
}
