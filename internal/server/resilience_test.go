package server

import (
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

	"biasmit/internal/backend"
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
type faultySwitch struct {
	on        atomic.Bool
	failShots int
}

func (f *faultySwitch) wrap(run backend.Runner) backend.Runner {
	return func(ctx context.Context, c *circuit.Circuit, dev *device.Device, opt backend.Options) (*dist.Counts, error) {
		if f.on.Load() && (f.failShots == 0 || opt.Shots == f.failShots) {
			return nil, &backend.TransientError{Op: "test", Err: fmt.Errorf("injected outage")}
		}
		return run(ctx, c, dev, opt)
	}
}

// resilientServer builds a server with a switchable fault source, a fake
// clock, no retries, and a tight breaker, so breaker transitions are
// driven by individual requests.
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

func TestBreakerOpensServes503AndRecovers(t *testing.T) {
	f := &faultySwitch{}
	_, ts, clk := resilientServer(t, f, Config{
		RetryAttempts:    1,
		BreakerThreshold: 2,
		BreakerCooldown:  5 * time.Second,
		ProfileShots:     64,
	})
	req := MitigateRequest{Machine: "ibmqx2", Policy: "baseline", Benchmark: "prep:00", Shots: 64, Seed: 1}

	// Two failing runs exhaust the (single-attempt) retry budget twice
	// and open the breaker.
	f.on.Store(true)
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/mitigate", req)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, want 503: %s", i+1, resp.StatusCode, data)
		}
		if ae := decodeError(t, data); ae.Code != CodeUpstreamTransient {
			t.Fatalf("request %d: code %q, want %q", i+1, ae.Code, CodeUpstreamTransient)
		}
	}

	// The third request is rejected by the open breaker without touching
	// the backend: typed code plus a Retry-After header.
	resp, data := postJSON(t, ts.URL+"/v1/mitigate", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, data)
	}
	if ae := decodeError(t, data); ae.Code != CodeBreakerOpen {
		t.Fatalf("code %q, want %q", ae.Code, CodeBreakerOpen)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "5" {
		t.Fatalf("Retry-After %q, want %q", ra, "5")
	}

	// /healthz is honest about it: degraded, with the machine marked open.
	hresp, hdata := getBody(t, ts.URL+"/healthz")
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d (only one machine is dark)", hresp.StatusCode)
	}
	var h HealthResponse
	if err := json.Unmarshal(hdata, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Fatalf("health status %q, want degraded: %s", h.Status, hdata)
	}
	foundOpen := false
	for _, m := range h.Machines {
		if m.Machine == "ibmqx2" {
			foundOpen = m.Breaker == "open" && m.RetryAfterMS > 0
		} else if m.Breaker != "closed" {
			t.Fatalf("machine %s breaker %q, want closed", m.Machine, m.Breaker)
		}
	}
	if !foundOpen {
		t.Fatalf("ibmqx2 not reported open: %s", hdata)
	}

	// After the cooldown the half-open probe succeeds and the breaker
	// closes again.
	clk.advance(6 * time.Second)
	f.on.Store(false)
	resp, data = postJSON(t, ts.URL+"/v1/mitigate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status %d: %s", resp.StatusCode, data)
	}
	hresp, hdata = getBody(t, ts.URL+"/healthz")
	if err := json.Unmarshal(hdata, &h); err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("health after recovery: status %d %q", hresp.StatusCode, h.Status)
	}

	// /metrics exposes the retry, salvage, and breaker-transition
	// counters.
	_, mdata := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"biasmitd_backend_retries_total",
		"biasmitd_salvaged_shots_total",
		"biasmitd_breaker_rejections_total 1",
		`biasmitd_breaker_transitions_total{machine="ibmqx2",to="open"} 1`,
		`biasmitd_breaker_transitions_total{machine="ibmqx2",to="half-open"} 1`,
		`biasmitd_breaker_transitions_total{machine="ibmqx2",to="closed"} 1`,
		`biasmitd_breaker_state{machine="ibmqx2"} 0`,
	} {
		if !strings.Contains(string(mdata), want) {
			t.Fatalf("metrics missing %q:\n%s", want, mdata)
		}
	}
}

func TestHealthzUnavailableWhenEveryBreakerOpen(t *testing.T) {
	f := &faultySwitch{}
	s, ts, _ := resilientServer(t, f, Config{BreakerThreshold: 1})
	for _, name := range machineNames {
		dev, ok := device.ByName(name)
		if !ok {
			t.Fatalf("unknown machine %q", name)
		}
		s.exec(dev).breaker.Failure()
	}
	resp, data := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 with every breaker open: %s", resp.StatusCode, data)
	}
	var h HealthResponse
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "unavailable" {
		t.Fatalf("status %q, want unavailable", h.Status)
	}
}

func TestCharacterizeServesStaleProfileDegraded(t *testing.T) {
	f := &faultySwitch{}
	_, ts, clk := resilientServer(t, f, Config{
		RetryAttempts:    1,
		BreakerThreshold: 1000, // keep the breaker out of this test
		ProfileShots:     64,
		ProfileTTL:       time.Minute,
	})
	req := CharacterizeRequest{Machine: "ibmqx2", Method: "brute", Qubits: 2}

	resp, data := postJSON(t, ts.URL+"/v1/characterize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out CharacterizeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cached || out.Degraded {
		t.Fatalf("first characterization cached=%v degraded=%v", out.Cached, out.Degraded)
	}

	// Past the TTL with the backend dark, the stale profile is served
	// flagged degraded instead of erroring.
	clk.advance(2 * time.Minute)
	f.on.Store(true)
	resp, data = postJSON(t, ts.URL+"/v1/characterize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded serve status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || !out.Cached {
		t.Fatalf("degraded serve cached=%v degraded=%v: %s", out.Cached, out.Degraded, data)
	}
	if !out.Profile.Stale {
		t.Fatal("the served profile should be marked stale")
	}

	_, mdata := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(mdata), "biasmitd_profile_degraded_serves_total 1") {
		t.Fatalf("metrics missing degraded-serve counter:\n%s", mdata)
	}

	// /healthz reports the stale cache entry.
	_, hdata := getBody(t, ts.URL+"/healthz")
	var h HealthResponse
	if err := json.Unmarshal(hdata, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.ProfilesStale != 1 || h.ProfilesCached != 1 {
		t.Fatalf("health %+v, want degraded with 1/1 profiles stale", h)
	}
}

func TestMitigateAIMDegradedProfile(t *testing.T) {
	// Fail only characterization-sized runs (the 257-shot sentinel), so
	// the AIM run itself succeeds against a stale profile.
	f := &faultySwitch{failShots: 257}
	_, ts, clk := resilientServer(t, f, Config{
		RetryAttempts:    1,
		BreakerThreshold: 1000,
		ProfileShots:     257,
		ProfileTTL:       time.Minute,
	})
	req := MitigateRequest{Machine: "ibmqx2", Policy: "aim", Benchmark: "bv:01", Shots: 400, Seed: 5}

	resp, data := postJSON(t, ts.URL+"/v1/mitigate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out MitigateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Degraded || out.Profile == nil || out.Profile.Degraded {
		t.Fatalf("fresh AIM run should not be degraded: %s", data)
	}

	clk.advance(2 * time.Minute)
	f.on.Store(true)
	resp, data = postJSON(t, ts.URL+"/v1/mitigate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded AIM status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.Profile == nil || !out.Profile.Degraded || !out.Profile.Cached {
		t.Fatalf("degraded AIM response flags wrong: %s", data)
	}
}
