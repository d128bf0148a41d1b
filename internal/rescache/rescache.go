// Package rescache is the content-addressed mitigation result cache.
//
// Every mitigation result biasmitd serves is a deterministic pure
// function of the canonical request (machine, circuit digest, policy,
// shot budget, seed, api version) and the RBMS profile the run used —
// the PR 1 determinism work and the PR 4 fast-path equality suites
// guarantee byte-identical outputs for identical inputs. That makes
// results safe to cache by content hash and to fan out to concurrent
// identical requests, as long as two hazards are handled:
//
//   - Staleness: an AIM/SIM result computed against profile generation
//     G must never be served after the profile store publishes
//     generation G+1 (a new profile for the key).
//     Every entry therefore records the profile generation it was
//     computed under, and lookups compare it against the caller's
//     current generation — a mismatch deletes the entry and counts an
//     invalidation.
//
//   - Torn reads: a waiter must never observe a half-built result, and
//     one waiter's cancellation must not cancel the computation other
//     waiters (or the cache) are depending on. The cache runs each
//     computation exactly once as an internal/flight flight and fans
//     the finished bytes out; waiters that give up early get their own
//     ctx error while the computation keeps running to completion.
//
// The cache stores opaque byte slices (in biasmitd: the marshaled
// response body before the per-request envelope is stamped), bounded
// by a 1024-entry LRU. Callers must treat returned bytes as immutable.
package rescache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"biasmit/internal/flight"
)

// Outcome classifies how Do satisfied a request.
type Outcome int

const (
	// Miss: this call ran the computation (it was the singleflight
	// leader). The result may or may not have been stored, per the
	// compute closure's store flag.
	Miss Outcome = iota
	// Hit: the result was served from a cached entry whose profile
	// generation still matches; no computation ran.
	Hit
	// Coalesced: this call attached to an identical in-flight
	// computation started by an earlier request and received the same
	// bytes (or error) the leader produced.
	Coalesced
)

func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Stats is a point-in-time snapshot of the cache counters, exported on
// /metrics by the server.
type Stats struct {
	Hits        uint64 // lookups served from a stored entry
	Misses      uint64 // lookups that ran the computation
	Coalesced   uint64 // lookups that joined an in-flight computation
	Evicted     uint64 // entries dropped by the LRU bound
	Invalidated uint64 // entries dropped because their profile generation went stale
	Errors      uint64 // computations that finished with an error (never stored)
	Entries     int    // entries currently stored
	Bytes       int64  // payload bytes currently stored
}

// Computed is one finished computation as the compute closure reports
// it back to the cache.
type Computed struct {
	// Value is the bytes to fan out to every waiter.
	Value []byte
	// Gen is the profile generation the computation actually consumed
	// — the generation the entry is stored under. It may be newer
	// than the generation the lookup saw when the computation itself
	// (re)published the profile (an AIM request characterizing
	// in-line); storing under the consumed generation keeps the entry
	// valid instead of stillborn.
	Gen uint64
	// Store is false for results that are not pure functions of the
	// request (stale-profile serving): the bytes fan out to every waiter
	// but nothing is cached.
	Store bool
}

// maxEntries bounds the number of stored results; the least recently
// used entry is evicted past it.
const maxEntries = 1024

// Cache is a bounded, generation-checked LRU of computed results with
// singleflight coalescing. All methods are safe for concurrent use.
type Cache struct {
	limit   int // entry bound: maxEntries, or smaller in tests
	flights flight.Group[flightKey, Computed]

	mu      sync.Mutex
	entries map[string]*entry
	useSeq  uint64
	bytes   int64

	hits        uint64
	misses      uint64
	coalesced   uint64
	evicted     uint64
	invalidated uint64
	errors      uint64
}

// entry is one stored result.
type entry struct {
	gen     uint64 // profile generation the result was computed under
	value   []byte
	lastUse uint64 // LRU clock (monotonic useSeq at last touch)
}

// flightKey identifies an in-flight computation. The generation is
// part of the identity: a request arriving after a profile bump must
// not coalesce onto a computation keyed to the stale generation.
type flightKey struct {
	key string
	gen uint64
}

// New builds an empty Cache.
func New() *Cache {
	return &Cache{
		limit:   maxEntries,
		entries: make(map[string]*entry),
	}
}

// Do returns the cached bytes for key at profile generation gen, or
// runs compute (once across all concurrent callers of the same
// key+gen) and returns its result.
//
// compute receives a detached context — canceling ctx abandons the
// wait but not the shared computation. It reports back a Computed
// (the bytes to fan out, the generation they were computed under, and
// whether to store them) or an error. Errors fan out to every waiter
// and are never cached; the next request retries.
//
// A cached entry whose generation differs from gen is deleted
// (counted as an invalidation) and the lookup proceeds as a miss.
func (c *Cache) Do(ctx context.Context, key string, gen uint64, compute func(context.Context) (Computed, error)) ([]byte, Outcome, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.gen == gen {
			c.hits++
			c.useSeq++
			e.lastUse = c.useSeq
			v := e.value
			c.mu.Unlock()
			return v, Hit, nil
		}
		// The profile moved on under this entry: drop it and recompute.
		c.invalidated++
		c.removeLocked(key, e)
	}

	// Joining or starting the flight happens under c.mu, the lock the
	// settle hook stores under: a caller that missed the entry above
	// finds the flight that will store it.
	fk := flightKey{key: key, gen: gen}
	cl, joined := c.flights.Do(ctx, fk, compute, func(res Computed, err error) (Computed, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		switch {
		case err != nil:
			c.errors++
		case res.Store:
			c.storeLocked(key, res.Gen, res.Value)
		}
		return res, err
	})
	outcome := Miss
	if joined {
		outcome = Coalesced
		c.coalesced++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	res, err := cl.Wait(ctx)
	return res.Value, outcome, err
}

// storeLocked installs a finished result and enforces the LRU bound.
func (c *Cache) storeLocked(key string, gen uint64, value []byte) {
	if old, ok := c.entries[key]; ok {
		// A racing computation at a newer generation already
		// published; do not clobber it with the older result.
		if old.gen > gen {
			return
		}
		c.removeLocked(key, old)
	}
	c.useSeq++
	c.entries[key] = &entry{gen: gen, value: value, lastUse: c.useSeq}
	c.bytes += int64(len(value))
	for len(c.entries) > c.limit {
		var victimKey string
		var victim *entry
		for k, e := range c.entries {
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		c.evicted++
		c.removeLocked(victimKey, victim)
	}
}

func (c *Cache) removeLocked(key string, e *entry) {
	delete(c.entries, key)
	c.bytes -= int64(len(e.value))
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Coalesced:   c.coalesced,
		Evicted:     c.evicted,
		Invalidated: c.invalidated,
		Errors:      c.errors,
		Entries:     len(c.entries),
		Bytes:       c.bytes,
	}
}

// HashKey derives the content-address of an arbitrary canonical
// request value: the hex SHA-256 of its JSON encoding. Go's
// encoding/json marshals struct fields in declaration order and map
// keys sorted, so equal values hash equal.
func HashKey(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("rescache: hash key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
