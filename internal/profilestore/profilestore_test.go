package profilestore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"biasmit/internal/core"
)

// fakeClock is a manually advanced clock safe for concurrent reads.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// uniformProfile builds a profile whose every strength entry equals v —
// readers can detect a torn profile by checking uniformity.
func uniformProfile(key Key, v float64) *Profile {
	strength := make([]float64, 1<<uint(key.Width))
	for i := range strength {
		strength[i] = v
	}
	rbms, err := core.NewRBMS(key.Width, strength)
	if err != nil {
		panic(err)
	}
	return &Profile{RBMS: rbms, Shots: 1}
}

// checkUniform fails the test if the profile's strengths are not all
// identical (which would mean a half-written profile escaped the store).
func checkUniform(t *testing.T, p *Profile) {
	t.Helper()
	for i, s := range p.RBMS.Strength {
		if s != p.RBMS.Strength[0] {
			t.Fatalf("non-uniform profile: strength[%d]=%v, strength[0]=%v", i, s, p.RBMS.Strength[0])
		}
	}
}

func TestGetOrCharacterizeCachesAndExpires(t *testing.T) {
	clock := newFakeClock()
	var calls atomic.Int64
	key := Key{Machine: "ibmqx4", Width: 3, Method: "brute"}
	s := New(func(ctx context.Context, k Key) (*Profile, error) {
		n := calls.Add(1)
		return uniformProfile(k, float64(n)), nil
	}, Options{Now: clock.now})

	p1, cached, err := s.Serve(context.Background(), key)
	if err != nil || cached {
		t.Fatalf("first call: cached=%v err=%v, want miss", cached, err)
	}
	if p1.Key != key {
		t.Fatalf("profile key %v, want %v", p1.Key, key)
	}
	if p1.LearnedAt != clock.now() {
		t.Fatalf("LearnedAt %v, want store clock %v", p1.LearnedAt, clock.now())
	}

	p2, cached, err := s.Serve(context.Background(), key)
	if err != nil || !cached {
		t.Fatalf("second call: cached=%v err=%v, want hit", cached, err)
	}
	if p2 != p1 {
		t.Fatal("cache hit returned a different profile pointer")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("characterize ran %d times, want 1", got)
	}

	// A profile never expires: a day later it is still served from
	// cache, and nothing re-learns it.
	clock.advance(24 * time.Hour)
	p3, cached, err := s.Serve(context.Background(), key)
	if err != nil || !cached {
		t.Fatalf("day-old call: cached=%v err=%v, want hit", cached, err)
	}
	if p3 != p1 {
		t.Fatal("day-old call served a different profile")
	}
	if got := s.Age(p3); got != 24*time.Hour {
		t.Fatalf("age %v, want 24h", got)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("characterize ran %d times, want 1", got)
	}

	st := s.StatsSnapshot()
	if st.Hits != 2 || st.Misses != 1 || st.Characterizations != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss / 1 characterization", st)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

func TestConcurrentGetOrCharacterizeDeduplicates(t *testing.T) {
	const waiters = 32
	var calls atomic.Int64
	release := make(chan struct{})
	key := Key{Machine: "ibmqx2", Width: 4, Method: "brute"}
	s := New(func(ctx context.Context, k Key) (*Profile, error) {
		calls.Add(1)
		<-release // hold the leader until every other caller has joined
		return uniformProfile(k, 7), nil
	}, Options{})

	results := make(chan *Profile, waiters)
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			p, cached, err := s.Serve(context.Background(), key)
			if cached {
				err = errors.New("burst call reported a cache hit")
			}
			results <- p
			errs <- err
		}()
	}

	// Wait until one leader is characterizing and the rest are parked on
	// its call, then let the characterization finish.
	deadline := time.After(10 * time.Second)
	for {
		st := s.StatsSnapshot()
		if st.Misses == waiters && st.Joined == waiters-1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("burst never converged to 1 leader + %d joiners: %+v", waiters-1, st)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)

	for i := 0; i < waiters; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		p := <-results
		if p == nil {
			t.Fatal("nil profile from deduplicated call")
		}
		checkUniform(t, p)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("characterize ran %d times for a %d-call burst, want 1", got, waiters)
	}
}

func TestLeaderErrorPropagatesAndCachesNothing(t *testing.T) {
	wantErr := errors.New("characterization failed")
	fail := atomic.Bool{}
	fail.Store(true)
	key := Key{Machine: "ibmqx4", Width: 2, Method: "esct"}
	s := New(func(ctx context.Context, k Key) (*Profile, error) {
		if fail.Load() {
			return nil, wantErr
		}
		return uniformProfile(k, 1), nil
	}, Options{})

	if _, _, err := s.Serve(context.Background(), key); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if st := s.StatsSnapshot(); st.Entries != 0 || st.CharacterizeErrors != 1 {
		t.Fatalf("stats after failure = %+v, want 0 entries / 1 error", st)
	}
	// The failure is not cached: the next call retries.
	fail.Store(false)
	if _, cached, err := s.Serve(context.Background(), key); err != nil || cached {
		t.Fatalf("retry after failure: cached=%v err=%v", cached, err)
	}
}

// TestBackgroundRefreshServesOnlyCompleteProfiles hammers the store with
// readers while forced re-characterizations, each run on its own flight
// goroutine, repeatedly swap the profile. Run under -race this checks
// the swap is synchronized; readers keep hitting the old profile until
// the new one is published, and the uniformity check ensures no reader
// ever observes a half-written profile.
func TestBackgroundRefreshServesOnlyCompleteProfiles(t *testing.T) {
	var version atomic.Int64
	key := Key{Machine: "ibmqx4", Width: 5, Method: "brute"}
	s := New(func(ctx context.Context, k Key) (*Profile, error) {
		v := float64(version.Add(1))
		p := uniformProfile(k, v)
		// Mimic an incremental build: the profile under construction is
		// mutated field by field, but only the finished value is returned.
		for i := range p.RBMS.Strength {
			p.RBMS.Strength[i] = v
		}
		return p, nil
	}, Options{})

	if _, _, err := s.Serve(context.Background(), key); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	readErrs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p, cached, err := s.Serve(context.Background(), key)
				if err != nil {
					readErrs <- err
					return
				}
				if !cached {
					readErrs <- errors.New("reader missed during a re-characterization: the old profile must serve until the new one is published")
					return
				}
				for i, v := range p.RBMS.Strength {
					if v != p.RBMS.Strength[0] {
						readErrs <- fmt.Errorf("torn profile: strength[%d]=%v vs %v", i, v, p.RBMS.Strength[0])
						return
					}
				}
			}
		}()
	}

	for i := 0; i < 25; i++ {
		if _, err := s.Characterize(context.Background(), key); err != nil {
			t.Fatalf("re-characterization %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-readErrs:
		t.Fatal(err)
	default:
	}
	if st := s.StatsSnapshot(); st.Characterizations != 26 {
		t.Fatalf("characterizations = %d, want 26 (one cold, 25 forced)", st.Characterizations)
	}
}

// TestGenerationTracksProfileChanges pins the contract downstream
// result caches rely on: Generation(key) is 0 before any publication
// and bumps on every event that publishes a profile under the key —
// characterize, forced re-characterize, import — and each published
// profile carries the generation it was published under, so a result
// computed against generation G can be recognized as stale the moment
// the profile moves.
func TestGenerationTracksProfileChanges(t *testing.T) {
	clock := newFakeClock()
	var calls atomic.Int64
	key := Key{Machine: "ibmqx4", Width: 3, Method: "brute"}
	s := New(func(ctx context.Context, k Key) (*Profile, error) {
		return uniformProfile(k, float64(calls.Add(1))), nil
	}, Options{Now: clock.now})

	if g := s.Generation(key); g != 0 {
		t.Fatalf("virgin key generation %d, want 0", g)
	}

	p1, _, err := s.Serve(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	g1 := s.Generation(key)
	if g1 == 0 {
		t.Fatal("characterization did not bump the generation")
	}
	if p1.Gen != g1 {
		t.Fatalf("published profile carries generation %d, want %d", p1.Gen, g1)
	}

	// A cache hit must NOT bump: generations track the profile, not use.
	if _, cached, _ := s.Serve(context.Background(), key); !cached {
		t.Fatal("expected a cache hit")
	}
	if g := s.Generation(key); g != g1 {
		t.Fatalf("cache hit moved the generation %d -> %d", g1, g)
	}

	// A forced re-characterization publishes a new profile: new gen.
	clock.advance(11 * time.Minute)
	p2, err := s.Characterize(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	g2 := s.Generation(key)
	if g2 <= g1 || p2.Gen != g2 {
		t.Fatalf("re-characterization generation %d (profile %d), want > %d", g2, p2.Gen, g1)
	}
	if p1.Gen != g1 {
		t.Fatalf("re-characterization restamped the replaced profile: %d, want %d", p1.Gen, g1)
	}

	// Import is a publication too.
	imp := uniformProfile(key, 0.5)
	imp.Key = key
	imp.LearnedAt = clock.now()
	if err := s.Import(imp); err != nil {
		t.Fatal(err)
	}
	g3 := s.Generation(key)
	if g3 <= g2 {
		t.Fatalf("import generation %d, want > %d", g3, g2)
	}
	if p, _ := s.Get(key); p.Gen != g3 {
		t.Fatalf("imported profile carries generation %d, want %d", p.Gen, g3)
	}

	// Other keys are untouched by all of the above.
	other := Key{Machine: "ibmqx2", Width: 2, Method: "brute"}
	if g := s.Generation(other); g != 0 {
		t.Fatalf("unrelated key generation %d, want 0", g)
	}
}

// TestWaiterSurvivesLeaderCancel: the caller that started a
// characterization hanging up fails only its own wait. A caller that
// joined with a live context still gets the profile, and the profile is
// published for everyone after.
func TestWaiterSurvivesLeaderCancel(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	key := Key{Machine: "ibmqx4", Width: 3, Method: "brute"}
	s := New(func(ctx context.Context, k Key) (*Profile, error) {
		calls.Add(1)
		close(started)
		select {
		case <-release:
			return uniformProfile(k, 3), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}, Options{})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := s.Serve(leaderCtx, key)
		leaderErr <- err
	}()
	<-started
	type result struct {
		p   *Profile
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		p, _, err := s.Serve(context.Background(), key)
		waiter <- result{p, err}
	}()
	deadline := time.After(10 * time.Second)
	for s.StatsSnapshot().Joined != 1 {
		select {
		case <-deadline:
			t.Fatalf("waiter never joined: %+v", s.StatsSnapshot())
		case <-time.After(time.Millisecond):
		}
	}

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want its own context.Canceled", err)
	}
	close(release)
	res := <-waiter
	if res.err != nil {
		t.Fatalf("waiter with a live ctx got %v", res.err)
	}
	checkUniform(t, res.p)
	if p, cached, err := s.Serve(context.Background(), key); err != nil || !cached || p != res.p {
		t.Fatalf("after the flight: cached=%v err=%v, want the published profile", cached, err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("characterize ran %d times, want 1", n)
	}
}

// TestCharacterizePanicBecomesError: a panicking characterization fails
// its callers with an error instead of crashing the process or leaving
// the key in flight for good; the next call characterizes afresh.
func TestCharacterizePanicBecomesError(t *testing.T) {
	var calls atomic.Int64
	key := Key{Machine: "ibmqx2", Width: 2, Method: "brute"}
	s := New(func(ctx context.Context, k Key) (*Profile, error) {
		if calls.Add(1) == 1 {
			panic("characterizer bug")
		}
		return uniformProfile(k, 1), nil
	}, Options{})

	if _, _, err := s.Serve(context.Background(), key); err == nil {
		t.Fatal("panicking characterization returned no error")
	}
	if st := s.StatsSnapshot(); st.CharacterizeErrors != 1 || st.Entries != 0 {
		t.Fatalf("stats after panic = %+v, want 1 error and nothing cached", st)
	}
	p, cached, err := s.Serve(context.Background(), key)
	if err != nil || cached || p == nil {
		t.Fatalf("call after panic: cached=%v err=%v, want a fresh characterization", cached, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("characterize ran %d times, want 2", n)
	}
}
