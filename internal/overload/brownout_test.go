package overload

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock shared by the brownout and
// watchdog tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBrownoutStepsDownUnderSustainedPressure(t *testing.T) {
	clock := newFakeClock()
	b := NewBrownout(2*time.Second, 5*time.Second, clock.Now)

	// A single shed is not sustained pressure.
	b.Observe(true)
	if got := b.Tier(); got != TierFull {
		t.Fatalf("tier after one shed = %d, want full", got)
	}

	// Pressure sustained past the dwell steps down exactly one tier.
	clock.Advance(2 * time.Second)
	b.Observe(true)
	if got := b.Tier(); got != TierSIM {
		t.Fatalf("tier after sustained pressure = %d, want sim", got)
	}

	// The next step needs a fresh dwell — no instant free-fall.
	b.Observe(true)
	if got := b.Tier(); got != TierSIM {
		t.Fatalf("tier immediately after step = %d, want still sim", got)
	}
	clock.Advance(2 * time.Second)
	b.Observe(true)
	if got := b.Tier(); got != TierBaseline {
		t.Fatalf("tier after second dwell = %d, want baseline", got)
	}

	// Baseline is the floor.
	clock.Advance(10 * time.Second)
	b.Observe(true)
	if got := b.Tier(); got != TierBaseline {
		t.Fatalf("tier = %d, want clamped at baseline", got)
	}

	s := b.Stats()
	if s.StepsDown != 2 || s.StepsUp != 0 {
		t.Fatalf("stats = %+v, want 2 steps down", s)
	}
}

func TestBrownoutRecoversAfterCalm(t *testing.T) {
	clock := newFakeClock()
	b := NewBrownout(time.Second, 5*time.Second, clock.Now)
	// Drive to baseline.
	for b.Tier() != TierBaseline {
		b.Observe(true)
		clock.Advance(time.Second)
	}

	// Calm must be sustained per step: one success is not recovery.
	b.Observe(false)
	if got := b.Tier(); got != TierBaseline {
		t.Fatalf("tier after one calm observation = %d, want baseline", got)
	}
	clock.Advance(5 * time.Second)
	b.Observe(false)
	if got := b.Tier(); got != TierSIM {
		t.Fatalf("tier after one calm dwell = %d, want sim", got)
	}
	clock.Advance(5 * time.Second)
	b.Observe(false)
	if got := b.Tier(); got != TierFull {
		t.Fatalf("tier after two calm dwells = %d, want full", got)
	}

	// A shed during recovery resets the calm clock.
	clock.Advance(time.Second)
	b.Observe(true)
	clock.Advance(time.Second)
	b.Observe(true) // sustained again: back down
	if got := b.Tier(); got != TierSIM {
		t.Fatalf("tier after renewed pressure = %d, want sim", got)
	}
}

func TestBrownoutNil(t *testing.T) {
	var b *Brownout
	b.Observe(true)
	if got := b.Tier(); got != TierFull {
		t.Fatalf("nil brownout tier = %d, want full", got)
	}
}

func TestDegrade(t *testing.T) {
	cases := []struct {
		policy string
		tier   int
		want   string
	}{
		{"aim", TierFull, "aim"},
		{"sim", TierFull, "sim"},
		{"baseline", TierFull, "baseline"},
		{"aim", TierSIM, "sim"},
		{"sim", TierSIM, "sim"},
		{"baseline", TierSIM, "baseline"},
		{"aim", TierBaseline, "baseline"},
		{"sim", TierBaseline, "baseline"},
		{"baseline", TierBaseline, "baseline"},
		{"bogus", TierBaseline, "bogus"},
	}
	for _, c := range cases {
		if got := Degrade(c.policy, c.tier); got != c.want {
			t.Errorf("Degrade(%q, %d) = %q, want %q", c.policy, c.tier, got, c.want)
		}
	}
}

func TestTierName(t *testing.T) {
	if TierName(TierFull) != "full" || TierName(TierSIM) != "sim" || TierName(TierBaseline) != "baseline" {
		t.Fatal("tier names drifted from the wire contract")
	}
}
