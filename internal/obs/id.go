package obs

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// IDs are ULID-shaped — trace IDs here, job IDs in the job queue: a
// 48-bit millisecond timestamp followed by 80 bits of entropy, rendered
// as 26 characters of Crockford base32. Lexicographic order is
// therefore mint-time order, which keeps /debug/traces, job listings,
// the job WAL, and log greps naturally chronological, and the alphabet
// (no I, L, O, U) survives transcription into a support ticket. Within
// one millisecond the entropy is incremented rather than redrawn, so
// IDs from one generator are strictly monotonic even under bursts.

const idLen = 26

// crockford is the base32 alphabet ULIDs use.
const crockford = "0123456789ABCDEFGHJKMNPQRSTVWXYZ"

// IDGen mints ordered IDs. Safe for concurrent use.
type IDGen struct {
	mu      sync.Mutex
	now     func() time.Time
	rnd     *rand.Rand
	lastMS  uint64
	entropy [10]byte
}

// NewIDGen builds a generator on the given clock, seeding its entropy
// stream from the OS so two processes never collide. A nil clock
// selects time.Now.
func NewIDGen(now func() time.Time) *IDGen {
	if now == nil {
		now = time.Now
	}
	var seed [8]byte
	if _, err := cryptorand.Read(seed[:]); err != nil {
		binary.LittleEndian.PutUint64(seed[:], uint64(time.Now().UnixNano()))
	}
	return &IDGen{now: now, rnd: rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))}
}

// Next mints one ID.
func (g *IDGen) Next() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	ms := uint64(g.now().UnixMilli())
	if ms <= g.lastMS {
		// Same (or rewound) millisecond: bump the entropy so the new ID
		// still sorts after the previous one.
		ms = g.lastMS
		for i := len(g.entropy) - 1; i >= 0; i-- {
			g.entropy[i]++
			if g.entropy[i] != 0 {
				break
			}
		}
	} else {
		g.lastMS = ms
		binary.LittleEndian.PutUint64(g.entropy[0:8], g.rnd.Uint64())
		binary.LittleEndian.PutUint16(g.entropy[8:10], uint16(g.rnd.Uint32()))
	}
	return encodeID(ms, g.entropy)
}

// encodeID renders 48 bits of timestamp plus 80 bits of entropy as 26
// Crockford base32 characters (the standard ULID text form).
func encodeID(ms uint64, entropy [10]byte) string {
	var bin [16]byte
	bin[0] = byte(ms >> 40)
	bin[1] = byte(ms >> 32)
	bin[2] = byte(ms >> 24)
	bin[3] = byte(ms >> 16)
	bin[4] = byte(ms >> 8)
	bin[5] = byte(ms)
	copy(bin[6:], entropy[:])

	var out [idLen]byte
	// 128 bits into 26 five-bit groups, most significant first (the top
	// group holds only 3 bits, ULID-style).
	var acc uint32
	bits := 0
	j := idLen - 1
	for i := len(bin) - 1; i >= 0; i-- {
		acc |= uint32(bin[i]) << bits
		bits += 8
		for bits >= 5 && j >= 0 {
			out[j] = crockford[acc&31]
			acc >>= 5
			bits -= 5
			j--
		}
	}
	for j >= 0 {
		out[j] = crockford[acc&31]
		acc >>= 5
		j--
	}
	return string(out[:])
}

var defaultIDGen = NewIDGen(nil)

// NewTraceID mints one trace ID from the process-wide generator.
func NewTraceID() string { return defaultIDGen.Next() }

// ValidID reports whether s is shaped like an ID: 26 Crockford base32
// characters. The server uses it to decide whether an inbound
// X-Trace-Id header is worth adopting, and to reject a malformed job ID
// before a map lookup.
func ValidID(s string) error {
	if len(s) != idLen {
		return fmt.Errorf("obs: ID %q has length %d, want %d", s, len(s), idLen)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := (c >= '0' && c <= '9') ||
			(c >= 'A' && c <= 'Z' && c != 'I' && c != 'L' && c != 'O' && c != 'U')
		if !ok {
			return fmt.Errorf("obs: ID %q has invalid character %q", s, c)
		}
	}
	return nil
}
