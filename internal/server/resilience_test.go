package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/backend"
	"biasmit/internal/chaos"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/dist"
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

// faultySwitch makes every backend run fail transiently while on. The
// failShots filter, when non-zero, restricts failures to runs with that
// exact shot budget (used to break characterization but not mitigation).
// panicNext makes the next backend call panic, once. calls counts every
// backend call, retries included.
type faultySwitch struct {
	on        atomic.Bool
	failShots int
	panicNext atomic.Bool
	calls     atomic.Int64
}

func (f *faultySwitch) wrap(run backend.Runner) backend.Runner {
	return func(ctx context.Context, c *circuit.Circuit, dev *device.Device, opt backend.Options) (*dist.Counts, error) {
		f.calls.Add(1)
		if f.panicNext.CompareAndSwap(true, false) {
			panic("injected panic")
		}
		if f.on.Load() && (f.failShots == 0 || opt.Shots == f.failShots) {
			return nil, &backend.TransientError{Op: "test", Err: fmt.Errorf("injected outage")}
		}
		return run(ctx, c, dev, opt)
	}
}

// resilientServer builds a server with a switchable fault source, a fake
// clock and no backoff sleep, so a retried run costs no wall time.
func resilientServer(t *testing.T, f *faultySwitch, cfg Config) (*Server, *httptest.Server, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	cfg.Now = clk.now
	cfg.sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	cfg.wrapRun = f.wrap
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.MaxShots == 0 {
		cfg.MaxShots = 1 << 16
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, clk
}

// TestOutageServesTyped503AndRecovers: while every run fails, each
// request answers a typed upstream_transient 503 after its attempts and
// /healthz stays ok; once the outage ends the next request is served.
// /metrics counts every run, retry and failure.
func TestOutageServesTyped503AndRecovers(t *testing.T) {
	f := &faultySwitch{}
	_, ts, _ := resilientServer(t, f, Config{RetryAttempts: 2, ProfileShots: 64})
	req := api.MitigateRequest{Machine: "ibmqx2", Policy: "baseline", Benchmark: "prep:00", Shots: 64, Seed: 1}

	f.on.Store(true)
	for i := 1; i <= 3; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/mitigate", req)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, want 503: %s", i, resp.StatusCode, data)
		}
		if ae := decodeError(t, data); ae.Code != api.CodeUpstreamTransient {
			t.Fatalf("request %d: code %q, want %q", i, ae.Code, api.CodeUpstreamTransient)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Fatalf("request %d: Retry-After %q on an upstream_transient reply", i, ra)
		}
	}
	if calls := f.calls.Load(); calls != 3*2 {
		t.Fatalf("%d backend calls during the outage, want 3 runs × 2 attempts = 6", calls)
	}

	// A failing backend does not make the daemon unready.
	hresp, hdata := getBody(t, ts.URL+"/healthz")
	var h api.HealthResponse
	if err := json.Unmarshal(hdata, &h); err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("health during the outage: status %d %q, want 200 ok: %s", hresp.StatusCode, h.Status, hdata)
	}

	f.on.Store(false)
	if resp, data := postJSON(t, ts.URL+"/v1/mitigate", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-outage status %d: %s", resp.StatusCode, data)
	}
	_, mdata := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"biasmitd_backend_runs_total 4\n",
		"biasmitd_backend_retries_total 3\n",
		"biasmitd_backend_run_failures_total 3\n",
	} {
		if !strings.Contains(string(mdata), want) {
			t.Fatalf("metrics missing %q:\n%s", want, mdata)
		}
	}
}

// TestRetriesBoundedByAttempts pins what bounds backend work against a
// machine whose every run fails: the executor's attempt cap per run.
// Every request runs, is attempted exactly RetryAttempts times inside
// its admission slot, and answers upstream_transient, so 8 clients × 5
// requests make exactly 40 × 4 backend calls.
func TestRetriesBoundedByAttempts(t *testing.T) {
	const (
		attempts  = 4 // the default
		clients   = 8
		perClient = 5
	)
	f := &faultySwitch{}
	f.on.Store(true)
	s, ts, _ := resilientServer(t, f, Config{MaxJobs: 2})

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := api.MitigateRequest{Machine: "ibmqx2", Policy: "baseline", Benchmark: "prep:00",
					Shots: 64, Seed: int64(c*perClient + i + 1)}
				raw, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/mitigate", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Error(err)
					return
				}
				var env api.ErrorEnvelope
				err = json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				if err != nil || env.Error == nil || resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("status %d, want a typed 503 (decode error %v)", resp.StatusCode, err)
					return
				}
				if env.Error.Code != api.CodeUpstreamTransient {
					t.Errorf("code %q, want %s", env.Error.Code, api.CodeUpstreamTransient)
				}
			}
		}(c)
	}
	wg.Wait()

	const requests = clients * perClient
	if calls := f.calls.Load(); calls != requests*attempts {
		t.Fatalf("%d backend calls, want %d requests × %d attempts = %d", calls, requests, attempts, requests*attempts)
	}
	if st := s.exec.Stats(); st.Runs != requests || st.Retries != requests*(attempts-1) || st.Failures != requests {
		t.Fatalf("executor stats %+v, want %d runs, %d retries, %d failures", st, requests, requests*(attempts-1), requests)
	}
}

// TestPanickingRunDoesNotDarkenMachine: a run that panics ends its own
// request with a 500 internal and leaves no state behind, so after a
// streak of failed runs and a panic, healthy requests an hour apart
// are all served.
func TestPanickingRunDoesNotDarkenMachine(t *testing.T) {
	f := &faultySwitch{}
	_, ts, clk := resilientServer(t, f, Config{RetryAttempts: 1})
	req := api.MitigateRequest{Machine: "ibmqx2", Policy: "baseline", Benchmark: "prep:00", Shots: 64, Seed: 1}

	f.on.Store(true)
	for i := 1; i <= 5; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/mitigate", req)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("failing request %d: status %d, want 503: %s", i, resp.StatusCode, data)
		}
	}
	f.on.Store(false)
	clk.advance(time.Minute)

	f.panicNext.Store(true)
	resp, data := postJSON(t, ts.URL+"/v1/mitigate", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking run: status %d, want 500: %s", resp.StatusCode, data)
	}
	if ae := decodeError(t, data); ae.Code != api.CodeInternal {
		t.Fatalf("panicking run: code %q, want %q", ae.Code, api.CodeInternal)
	}

	for i := 1; i <= 3; i++ {
		clk.advance(time.Hour)
		if resp, data := postJSON(t, ts.URL+"/v1/mitigate", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("healthy request %d, %dh after the panic: status %d, want 200: %s", i, i, resp.StatusCode, data)
		}
	}
}

// TestChaosFailFirstCountsEveryMachine: the fault plan's FailFirst
// fails the daemon's first N runs, not each machine's: after two ibmqx4
// runs fail, the next run, on ibmqx2, succeeds.
func TestChaosFailFirstCountsEveryMachine(t *testing.T) {
	_, ts, _ := resilientServer(t, &faultySwitch{}, Config{
		Chaos:         chaos.Plan{FailFirst: 2},
		RetryAttempts: 1,
	})
	req := api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 256, Seed: 1}
	for i := 1; i <= 2; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/mitigate", req)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("ibmqx4 run %d: status %d, want 503: %s", i, resp.StatusCode, data)
		}
		if ae := decodeError(t, data); ae.Code != api.CodeUpstreamTransient {
			t.Fatalf("ibmqx4 run %d: code %q, want %q", i, ae.Code, api.CodeUpstreamTransient)
		}
	}
	req.Machine, req.Benchmark = "ibmqx2", "bv:01"
	if resp, data := postJSON(t, ts.URL+"/v1/mitigate", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("ibmqx2 run after the fault budget is spent: status %d, want 200: %s", resp.StatusCode, data)
	}
}

// TestProfilesNeverExpire: a cached profile is learned again only when
// a characterization forces it. Long after it was learned, with every
// characterization run failing, an AIM request and a non-forced
// characterize are both served the cached profile, undegraded, nothing
// re-learns it, and /healthz reads ok.
func TestProfilesNeverExpire(t *testing.T) {
	// Fail only characterization-sized runs (the 257-shot sentinel), so
	// the AIM run itself succeeds.
	f := &faultySwitch{failShots: 257}
	s, ts, clk := resilientServer(t, f, Config{RetryAttempts: 1, ProfileShots: 257})
	req := api.MitigateRequest{Machine: "ibmqx2", Policy: "aim", Benchmark: "bv:01", Shots: 400, Seed: 5}
	if resp, data := postJSON(t, ts.URL+"/v1/mitigate", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold AIM run: status %d: %s", resp.StatusCode, data)
	}
	profs := s.store.Profiles()
	if len(profs) != 1 {
		t.Fatalf("%d profiles cached after the cold run, want 1", len(profs))
	}
	key := profs[0].Key
	gen := s.store.Generation(key)
	before := s.store.StatsSnapshot()

	// Past the 30-minute TTL the store used to apply, with every
	// characterization run failing.
	clk.advance(31 * time.Minute)
	f.on.Store(true)

	req.Seed = 6
	resp, data := postJSON(t, ts.URL+"/v1/mitigate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("AIM run on the old profile: status %d: %s", resp.StatusCode, data)
	}
	var out api.MitigateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Degraded || out.Profile == nil || !out.Profile.Cached || out.Profile.Degraded || out.Profile.Stale {
		t.Fatalf("AIM run on the old profile: want a plain profile-cache hit: %s", data)
	}

	cresp, cdata := postJSON(t, ts.URL+"/v1/characterize",
		api.CharacterizeRequest{Machine: key.Machine, Method: key.Method, Qubits: key.Width})
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("characterize: status %d: %s", cresp.StatusCode, cdata)
	}
	var cout api.CharacterizeResponse
	if err := json.Unmarshal(cdata, &cout); err != nil {
		t.Fatal(err)
	}
	if !cout.Cached || cout.Degraded || cout.Profile.Stale {
		t.Fatalf("characterize: want the cached profile, undegraded: %s", cdata)
	}

	if g := s.store.Generation(key); g != gen {
		t.Fatalf("generation moved %d -> %d", gen, g)
	}
	after := s.store.StatsSnapshot()
	if after.Characterizations != before.Characterizations || after.CharacterizeErrors != before.CharacterizeErrors {
		t.Fatalf("characterizations %d -> %d, errors %d -> %d; want no re-learn",
			before.Characterizations, after.Characterizations, before.CharacterizeErrors, after.CharacterizeErrors)
	}

	_, hdata := getBody(t, ts.URL+"/healthz")
	var h api.HealthResponse
	if err := json.Unmarshal(hdata, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.ProfilesStale != 0 || h.ProfilesCached != 1 {
		t.Fatalf("health %+v, want ok with 1 cached profile and none stale", h)
	}
}
