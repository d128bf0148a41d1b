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
	}, Options{TTL: 10 * time.Minute, Now: clock.now})

	p1, cached, err := s.GetOrCharacterize(context.Background(), key)
	if err != nil || cached {
		t.Fatalf("first call: cached=%v err=%v, want miss", cached, err)
	}
	if p1.Key != key {
		t.Fatalf("profile key %v, want %v", p1.Key, key)
	}
	if p1.LearnedAt != clock.now() {
		t.Fatalf("LearnedAt %v, want store clock %v", p1.LearnedAt, clock.now())
	}

	p2, cached, err := s.GetOrCharacterize(context.Background(), key)
	if err != nil || !cached {
		t.Fatalf("second call: cached=%v err=%v, want hit", cached, err)
	}
	if p2 != p1 {
		t.Fatal("cache hit returned a different profile pointer")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("characterize ran %d times, want 1", got)
	}

	// Within TTL the profile stays fresh; past it the entry expires.
	clock.advance(9 * time.Minute)
	if _, cached, _ := s.GetOrCharacterize(context.Background(), key); !cached {
		t.Fatal("profile expired before its TTL")
	}
	clock.advance(2 * time.Minute)
	p3, cached, err := s.GetOrCharacterize(context.Background(), key)
	if err != nil || cached {
		t.Fatalf("post-TTL call: cached=%v err=%v, want re-characterization", cached, err)
	}
	if p3 == p1 {
		t.Fatal("expired entry served the old profile")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("characterize ran %d times, want 2", got)
	}

	st := s.StatsSnapshot()
	if st.Hits != 2 || st.Misses != 1 || st.Expired != 1 || st.Characterizations != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss / 1 expired / 2 characterizations", st)
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
	}, Options{TTL: time.Hour})

	results := make(chan *Profile, waiters)
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			p, cached, err := s.GetOrCharacterize(context.Background(), key)
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
	}, Options{TTL: time.Hour})

	if _, _, err := s.GetOrCharacterize(context.Background(), key); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if st := s.StatsSnapshot(); st.Entries != 0 || st.CharacterizeErrors != 1 {
		t.Fatalf("stats after failure = %+v, want 0 entries / 1 error", st)
	}
	// The failure is not cached: the next call retries.
	fail.Store(false)
	if _, cached, err := s.GetOrCharacterize(context.Background(), key); err != nil || cached {
		t.Fatalf("retry after failure: cached=%v err=%v", cached, err)
	}
}

// TestBackgroundRefreshServesOnlyCompleteProfiles hammers the store with
// readers while refreshes repeatedly swap the profile. Run under -race
// this checks the swap is synchronized; the uniformity check ensures no
// reader ever observes a half-written profile.
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
	}, Options{TTL: time.Hour, RefreshAfter: time.Nanosecond, RefreshWorkers: 2})

	if _, _, err := s.GetOrCharacterize(context.Background(), key); err != nil {
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
				p, cached, err := s.GetOrCharacterize(context.Background(), key)
				if err != nil {
					readErrs <- err
					return
				}
				if !cached {
					readErrs <- errors.New("reader missed during refresh: stale-while-revalidate broken")
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
		if err := s.Refresh(context.Background()); err != nil {
			t.Fatalf("refresh %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-readErrs:
		t.Fatal(err)
	default:
	}
	if st := s.StatsSnapshot(); st.Refreshes < 25 {
		t.Fatalf("refreshes = %d, want >= 25", st.Refreshes)
	}
}

func TestRefreshOnlyRelearnsDueProfiles(t *testing.T) {
	clock := newFakeClock()
	var calls atomic.Int64
	key := Key{Machine: "ibmqx2", Width: 3, Method: "awct"}
	s := New(func(ctx context.Context, k Key) (*Profile, error) {
		return uniformProfile(k, float64(calls.Add(1))), nil
	}, Options{TTL: 30 * time.Minute, RefreshAfter: 20 * time.Minute, Now: clock.now})

	if _, _, err := s.GetOrCharacterize(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("fresh profile was refreshed (%d characterizations)", got)
	}

	clock.advance(21 * time.Minute)
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("due profile was not refreshed (%d characterizations)", got)
	}
	// The refreshed profile restarted its TTL clock: still fresh later.
	clock.advance(25 * time.Minute)
	if _, cached, _ := s.GetOrCharacterize(context.Background(), key); !cached {
		t.Fatal("refresh did not reset the profile's age")
	}
}

func TestRefreshFailureKeepsServingOldProfile(t *testing.T) {
	clock := newFakeClock()
	fail := atomic.Bool{}
	key := Key{Machine: "ibmqx4", Width: 3, Method: "brute"}
	s := New(func(ctx context.Context, k Key) (*Profile, error) {
		if fail.Load() {
			return nil, errors.New("device offline")
		}
		return uniformProfile(k, 1), nil
	}, Options{TTL: time.Hour, RefreshAfter: time.Minute, Now: clock.now})

	p0, _, err := s.GetOrCharacterize(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	clock.advance(2 * time.Minute)
	fail.Store(true)
	if err := s.Refresh(context.Background()); err == nil {
		t.Fatal("refresh of a failing characterization reported success")
	}
	p1, cached, err := s.GetOrCharacterize(context.Background(), key)
	if err != nil || !cached || p1 != p0 {
		t.Fatalf("old profile not served after failed refresh: cached=%v err=%v", cached, err)
	}
	if st := s.StatsSnapshot(); st.RefreshErrors != 1 {
		t.Fatalf("stats = %+v, want 1 refresh error", st)
	}
}

// TestGenerationTracksProfileChanges pins the contract downstream
// result caches rely on: Generation(key) is 0 before any publication
// and bumps on every event that changes the profile under the key —
// characterize, TTL re-characterize, import, invalidation — so a
// result computed against generation G can be recognized as stale the
// moment the profile moves.
func TestGenerationTracksProfileChanges(t *testing.T) {
	clock := newFakeClock()
	var calls atomic.Int64
	key := Key{Machine: "ibmqx4", Width: 3, Method: "brute"}
	s := New(func(ctx context.Context, k Key) (*Profile, error) {
		return uniformProfile(k, float64(calls.Add(1))), nil
	}, Options{TTL: 10 * time.Minute, Now: clock.now})

	if g := s.Generation(key); g != 0 {
		t.Fatalf("virgin key generation %d, want 0", g)
	}

	if _, _, err := s.GetOrCharacterize(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	g1 := s.Generation(key)
	if g1 == 0 {
		t.Fatal("characterization did not bump the generation")
	}

	// A cache hit must NOT bump: generations track the profile, not use.
	if _, cached, _ := s.GetOrCharacterize(context.Background(), key); !cached {
		t.Fatal("expected a cache hit")
	}
	if g := s.Generation(key); g != g1 {
		t.Fatalf("cache hit moved the generation %d -> %d", g1, g)
	}

	// TTL expiry forces a re-characterization: new profile, new gen.
	clock.advance(11 * time.Minute)
	if _, cached, _ := s.GetOrCharacterize(context.Background(), key); cached {
		t.Fatal("expected a post-TTL re-characterization")
	}
	g2 := s.Generation(key)
	if g2 <= g1 {
		t.Fatalf("re-characterization generation %d, want > %d", g2, g1)
	}

	// Invalidation bumps even though nothing is republished yet.
	s.Invalidate(key)
	g3 := s.Generation(key)
	if g3 <= g2 {
		t.Fatalf("invalidation generation %d, want > %d", g3, g2)
	}

	// Import is a publication too.
	imp := uniformProfile(key, 0.5)
	imp.Key = key
	imp.LearnedAt = clock.now()
	if err := s.Import(imp); err != nil {
		t.Fatal(err)
	}
	if g := s.Generation(key); g <= g3 {
		t.Fatalf("import generation %d, want > %d", g, g3)
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
	}, Options{TTL: time.Hour})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrCharacterize(leaderCtx, key)
		leaderErr <- err
	}()
	<-started
	type result struct {
		p   *Profile
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		p, _, err := s.GetOrCharacterize(context.Background(), key)
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
	if p, cached, err := s.GetOrCharacterize(context.Background(), key); err != nil || !cached || p != res.p {
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
	}, Options{TTL: time.Hour})

	if _, _, err := s.GetOrCharacterize(context.Background(), key); err == nil {
		t.Fatal("panicking characterization returned no error")
	}
	if st := s.StatsSnapshot(); st.CharacterizeErrors != 1 || st.Entries != 0 {
		t.Fatalf("stats after panic = %+v, want 1 error and nothing cached", st)
	}
	p, cached, err := s.GetOrCharacterize(context.Background(), key)
	if err != nil || cached || p == nil {
		t.Fatalf("call after panic: cached=%v err=%v, want a fresh characterization", cached, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("characterize ran %d times, want 2", n)
	}
}

// TestRefreshSkipsKeysInFlight: a refresh pass leaves a key alone while
// a request-path characterization of it runs — that run publishes the
// fresh profile.
func TestRefreshSkipsKeysInFlight(t *testing.T) {
	clock := newFakeClock()
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	key := Key{Machine: "ibmqx4", Width: 3, Method: "brute"}
	s := New(func(ctx context.Context, k Key) (*Profile, error) {
		n := calls.Add(1)
		if n == 2 {
			close(entered)
			<-release
		}
		return uniformProfile(k, float64(n)), nil
	}, Options{TTL: 10 * time.Minute, RefreshAfter: time.Minute, Now: clock.now})

	if _, _, err := s.GetOrCharacterize(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	clock.advance(11 * time.Minute) // expired, and due for refresh
	relearned := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrCharacterize(context.Background(), key)
		relearned <- err
	}()
	<-entered
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("characterize ran %d times, want 2 (refresh must skip the key in flight)", n)
	}
	close(release)
	if err := <-relearned; err != nil {
		t.Fatal(err)
	}
	if st := s.StatsSnapshot(); st.Refreshes != 0 || st.Characterizations != 2 {
		t.Fatalf("stats = %+v, want 2 characterizations and no refresh", st)
	}
}
