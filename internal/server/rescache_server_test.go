package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/backend"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/obs"
	"biasmit/internal/profilestore"
)

// countingRuns counts backend executions, optionally holding each one
// open until released so concurrent requests demonstrably overlap.
type countingRuns struct {
	runs    atomic.Int64
	hold    chan struct{} // non-nil: every run blocks here
	entered chan struct{} // buffered; one tick per run that started
}

func (c *countingRuns) wrap(run backend.Runner) backend.Runner {
	return func(ctx context.Context, cc *circuit.Circuit, dev *device.Device, opt backend.Options) (*dist.Counts, error) {
		c.runs.Add(1)
		if c.entered != nil {
			c.entered <- struct{}{}
		}
		if c.hold != nil {
			<-c.hold
		}
		return run(ctx, cc, dev, opt)
	}
}

func cachedServer(t *testing.T, counting *countingRuns) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Workers: 2, MaxJobs: 4, ProfileShots: 64, MaxShots: 1 << 16, ResultCache: true,
	}
	if counting != nil {
		cfg.wrapRun = counting.wrap
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// stripPerRequest zeroes the fields writeJSON and the cache stamp per
// request — envelope and cache metadata — leaving everything the
// byte-identity contract covers, ElapsedMS included.
func stripPerRequest(t *testing.T, raw []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal response: %v", err)
	}
	delete(m, "api_version")
	delete(m, "trace_id")
	delete(m, "cache_hit")
	delete(m, "coalesced")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResultCacheHitIsByteIdentical: the second identical request is
// served from the cache (pipeline not re-run) and its body — elapsed
// time included — is byte-identical to the first modulo the envelope
// and the cache_hit marker.
func TestResultCacheHitIsByteIdentical(t *testing.T) {
	counting := &countingRuns{}
	_, ts := cachedServer(t, counting)

	req := &api.MitigateRequest{Machine: "ibmqx4", Policy: "aim", Benchmark: "bv-4A", Shots: 512, Seed: 7}
	resp1, raw1 := postJSON(t, ts.URL+"/v1/mitigate", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp1.StatusCode, raw1)
	}
	runsAfterFirst := counting.runs.Load()
	resp2, raw2 := postJSON(t, ts.URL+"/v1/mitigate", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d %s", resp2.StatusCode, raw2)
	}
	if got := counting.runs.Load(); got != runsAfterFirst {
		t.Fatalf("cache hit re-ran the backend: %d runs, want %d", got, runsAfterFirst)
	}

	var m1, m2 api.MitigateResponse
	if err := json.Unmarshal(raw1, &m1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw2, &m2); err != nil {
		t.Fatal(err)
	}
	if m1.CacheHit {
		t.Fatal("first response claims cache_hit")
	}
	if !m2.CacheHit {
		t.Fatal("second response not marked cache_hit")
	}
	if m1.ElapsedMS != m2.ElapsedMS {
		t.Fatalf("cached elapsed_ms %v differs from original %v — the bytes were recomputed, not replayed", m2.ElapsedMS, m1.ElapsedMS)
	}
	if !bytes.Equal(stripPerRequest(t, raw1), stripPerRequest(t, raw2)) {
		t.Fatalf("cached body differs from original:\n%s\n%s", raw1, raw2)
	}
	if m1.TraceID == m2.TraceID || m2.TraceID == "" {
		t.Fatalf("trace IDs %q/%q: each response must carry its own", m1.TraceID, m2.TraceID)
	}
}

// TestResultCacheCoalescing: N concurrent identical requests execute
// the backend pipeline exactly once; every response carries the same
// result bytes, one as the leader (miss) and N-1 marked coalesced.
func TestResultCacheCoalescing(t *testing.T) {
	const n = 4
	counting := &countingRuns{hold: make(chan struct{}), entered: make(chan struct{}, 16)}
	s, ts := cachedServer(t, counting)

	req := &api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 512, Seed: 11}
	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, n)
	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		resp, raw := postJSON(t, ts.URL+"/v1/mitigate", req)
		results <- result{resp.StatusCode, raw}
	}
	wg.Add(1)
	go post()
	// The leader is inside the backend before the followers launch, so
	// all N verifiably overlap one execution.
	<-counting.entered
	for i := 1; i < n; i++ {
		wg.Add(1)
		go post()
	}
	waitFor(t, func() bool { return s.rescache.Stats().Coalesced == n-1 })
	close(counting.hold)
	wg.Wait()
	close(results)

	var leaders, coalesced int
	var canonical []byte
	for r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request failed: %d %s", r.status, r.body)
		}
		var m api.MitigateResponse
		if err := json.Unmarshal(r.body, &m); err != nil {
			t.Fatal(err)
		}
		if m.Coalesced {
			coalesced++
		} else {
			leaders++
		}
		stripped := stripPerRequest(t, r.body)
		if canonical == nil {
			canonical = stripped
		} else if !bytes.Equal(canonical, stripped) {
			t.Fatalf("coalesced responses diverge:\n%s\n%s", canonical, stripped)
		}
	}
	if leaders != 1 || coalesced != n-1 {
		t.Fatalf("%d leaders, %d coalesced; want 1 and %d", leaders, coalesced, n-1)
	}
	if got := counting.runs.Load(); got != 1 {
		t.Fatalf("backend ran %d times for %d concurrent identical requests, want exactly 1", got, n)
	}
	if st := s.rescache.Stats(); st.Coalesced != n-1 || st.Misses != 1 {
		t.Fatalf("cache stats %+v; want 1 miss, %d coalesced", st, n-1)
	}
}

// TestResultCacheInvalidatedByCharacterize: a forced re-characterize
// bumps the profile generation, so the next identical AIM request
// recomputes instead of replaying bytes tied to the old profile.
func TestResultCacheInvalidatedByCharacterize(t *testing.T) {
	s, ts := cachedServer(t, nil)

	req := &api.MitigateRequest{Machine: "ibmqx4", Policy: "aim", Benchmark: "bv-4A", Shots: 512, Seed: 7}
	if resp, raw := postJSON(t, ts.URL+"/v1/mitigate", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp.StatusCode, raw)
	}
	if resp, raw := postJSON(t, ts.URL+"/v1/mitigate", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d %s", resp.StatusCode, raw)
	} else {
		var m api.MitigateResponse
		_ = json.Unmarshal(raw, &m)
		if !m.CacheHit {
			t.Fatalf("second request not a cache hit: %s", raw)
		}
	}

	// Force a re-learn: the published profile bumps the generation.
	cresp, craw := postJSON(t, ts.URL+"/v1/characterize",
		&api.CharacterizeRequest{Machine: "ibmqx4", Method: "brute", Qubits: 5, Force: true})
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("characterize: %d %s", cresp.StatusCode, craw)
	}

	resp3, raw3 := postJSON(t, ts.URL+"/v1/mitigate", req)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-characterize request: %d %s", resp3.StatusCode, raw3)
	}
	var m3 api.MitigateResponse
	if err := json.Unmarshal(raw3, &m3); err != nil {
		t.Fatal(err)
	}
	if m3.CacheHit {
		t.Fatal("request after a forced re-characterize was served stale cached bytes")
	}
	st := s.rescache.Stats()
	if st.Invalidated != 1 {
		t.Fatalf("invalidations %d, want 1 (the re-characterize must drop the dependent entry)", st.Invalidated)
	}
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("cache stats %+v; want 1 hit and 2 misses around the invalidation", st)
	}
	// The fresh result is cached under the new generation.
	if resp, raw := postJSON(t, ts.URL+"/v1/mitigate", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("fourth request: %d %s", resp.StatusCode, raw)
	} else {
		var m api.MitigateResponse
		_ = json.Unmarshal(raw, &m)
		if !m.CacheHit {
			t.Fatal("result under the new profile generation was not cached")
		}
	}
}

// TestResultCacheMetricsExposed: the /metrics exposition carries the
// result-cache counters, and a disabled cache reports enabled 0.
func TestResultCacheMetricsExposed(t *testing.T) {
	_, ts := cachedServer(t, nil)
	req := &api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 256, Seed: 3}
	postJSON(t, ts.URL+"/v1/mitigate", req)
	postJSON(t, ts.URL+"/v1/mitigate", req)

	_, data := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"biasmitd_result_cache_enabled 1",
		"biasmitd_result_cache_hits_total 1",
		"biasmitd_result_cache_misses_total 1",
		"biasmitd_result_cache_coalesced_total 0",
		"biasmitd_result_cache_invalidations_total 0",
		"biasmitd_result_cache_entries 1",
		"biasmitd_result_cache_bytes",
	} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("metrics missing %q:\n%s", want, data)
		}
	}

	_, tsOff := testServer(t)
	_, dataOff := getBody(t, tsOff.URL+"/metrics")
	if !strings.Contains(string(dataOff), "biasmitd_result_cache_enabled 0") {
		t.Fatalf("cache-off metrics missing enabled 0 gauge:\n%s", dataOff)
	}
	if strings.Contains(string(dataOff), "biasmitd_result_cache_hits_total") {
		t.Fatal("cache-off metrics expose cache counters")
	}
}

// TestResultCacheAsyncJobsShareCache: async jobs execute through the
// same cached path, so a job identical to a completed sync request
// replays its bytes (and vice versa) rather than re-running.
func TestResultCacheAsyncJobsShareCache(t *testing.T) {
	counting := &countingRuns{}
	s, ts := cachedServer(t, counting)
	t.Cleanup(func() { s.DrainJobs(context.Background()) })

	mreq := &api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 512, Seed: 21}
	_, syncRaw := postJSON(t, ts.URL+"/v1/mitigate", mreq)
	runsAfterSync := counting.runs.Load()

	sresp, sraw := postJSON(t, ts.URL+"/v1/jobs", &api.JobSubmitRequest{Type: "mitigate", Mitigate: mreq})
	if sresp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", sresp.StatusCode, sraw)
	}
	var sub api.JobResponse
	if err := json.Unmarshal(sraw, &sub); err != nil {
		t.Fatal(err)
	}

	var jr api.JobResponse
	waitFor(t, func() bool {
		_, data := getBody(t, ts.URL+"/v1/jobs/"+sub.Job.ID)
		if err := json.Unmarshal(data, &jr); err != nil {
			return false
		}
		return jr.Job.State == "done"
	})
	if counting.runs.Load() != runsAfterSync {
		t.Fatalf("async job re-ran the backend despite an identical cached sync result")
	}
	var jm api.MitigateResponse
	if err := json.Unmarshal(jr.Result, &jm); err != nil {
		t.Fatalf("job result: %v", err)
	}
	if !jm.CacheHit {
		t.Fatal("job result not marked cache_hit")
	}
	if !bytes.Equal(stripPerRequest(t, syncRaw), stripPerRequest(t, jr.Result)) {
		t.Fatalf("job result differs from the cached sync bytes:\n%s\n%s", syncRaw, jr.Result)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestResultCacheKeyEquivalences pins which mitigate requests share a
// result-cache entry. Spellings of one run (seed 0 or 1, SIM modes 0 or
// 4, top 0 or 10, an omitted, "auto" or "brute" profile method on ≤ 5
// qubits, a baseline's ignored modes) and fields that cannot change the
// bytes (timeout_ms, X-Trace-Id, X-API-Key) hit the entry the first
// spelling stored; a different shots, seed, policy, benchmark or machine
// misses.
func TestResultCacheKeyEquivalences(t *testing.T) {
	_, ts := cachedServer(t, nil)
	sim := api.MitigateRequest{Machine: "ibmqx4", Policy: "sim", Benchmark: "bv-4A", Shots: 256}
	with := func(edit func(*api.MitigateRequest)) api.MitigateRequest {
		req := sim
		edit(&req)
		return req
	}
	cases := []struct {
		name    string
		req     api.MitigateRequest
		headers map[string]string
		hit     bool
	}{
		{"first spelling", sim, nil, false},
		{"seed 1, modes 4, top 10", with(func(r *api.MitigateRequest) { r.Seed, r.Modes, r.Top = 1, 4, 10 }), nil, true},
		{"timeout_ms", with(func(r *api.MitigateRequest) { r.TimeoutMS = 30000 }), nil, true},
		{"X-Trace-Id", sim, map[string]string{api.TraceHeader: obs.NewTraceID()}, true},
		{"X-API-Key", sim, map[string]string{"X-API-Key": "tenant-b"}, true},
		{"shots", with(func(r *api.MitigateRequest) { r.Shots = 512 }), nil, false},
		{"seed", with(func(r *api.MitigateRequest) { r.Seed = 2 }), nil, false},
		{"modes", with(func(r *api.MitigateRequest) { r.Modes = 2 }), nil, false},
		{"benchmark", with(func(r *api.MitigateRequest) { r.Benchmark = "bv-4B" }), nil, false},
		{"machine", with(func(r *api.MitigateRequest) { r.Machine = "ibmqx2" }), nil, false},
		{"policy baseline", with(func(r *api.MitigateRequest) { r.Policy = "baseline" }), nil, false},
		{"baseline ignores modes", with(func(r *api.MitigateRequest) { r.Policy, r.Modes = "baseline", 2 }), nil, true},
		{"policy aim", with(func(r *api.MitigateRequest) { r.Policy = "aim" }), nil, false},
		{"aim method auto", with(func(r *api.MitigateRequest) { r.Policy, r.ProfileMethod = "aim", "auto" }), nil, true},
		{"aim method brute", with(func(r *api.MitigateRequest) { r.Policy, r.ProfileMethod = "aim", "brute" }), nil, true},
	}
	for _, tc := range cases {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, data := doRequest(t, http.MethodPost, ts.URL+"/v1/mitigate", string(body), tc.headers)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, data)
		}
		var out api.MitigateResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.CacheHit != tc.hit || out.Coalesced {
			t.Fatalf("%s: cache_hit %v coalesced %v, want cache_hit %v", tc.name, out.CacheHit, out.Coalesced, tc.hit)
		}
	}
}

// TestResultCacheStoresUnderConsumedGeneration: a cold-start AIM run
// publishes its profile in-line and samples against it. When a forced
// re-characterization replaces that profile while the run is still
// sampling, the run's result belongs to the replaced profile, so the
// next identical request recomputes against the new one instead of
// replaying the old bytes.
func TestResultCacheStoresUnderConsumedGeneration(t *testing.T) {
	clk := newFakeClock()
	learnedAt := clk.now()
	key := profilestore.Key{Machine: "ibmqx4", Width: 5, Method: "brute"}
	var (
		s       *Server
		parking atomic.Bool
	)
	parked, release := make(chan struct{}), make(chan struct{})
	cfg := Config{
		Workers: 2, MaxJobs: 4, ProfileShots: 64, MaxShots: 1 << 16, ResultCache: true,
		Now: clk.now,
		// Park the first run after the in-line publish: the AIM run's
		// first sampling run.
		wrapRun: func(run backend.Runner) backend.Runner {
			return func(ctx context.Context, c *circuit.Circuit, dev *device.Device, opt backend.Options) (*dist.Counts, error) {
				if s.store.Generation(key) == 1 && parking.CompareAndSwap(false, true) {
					close(parked)
					<-release
				}
				return run(ctx, c, dev, opt)
			}
		},
	}
	s = New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	unpark := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unpark) // runs before ts.Close, so a failed test cannot leave the run parked

	req := &api.MitigateRequest{Machine: "ibmqx4", Policy: "aim", Benchmark: "bv-4A", Shots: 512, Seed: 7}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		status int
		body   []byte
		err    error
	}
	cold := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/mitigate", "application/json", bytes.NewReader(body))
		if err != nil {
			cold <- result{err: err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		cold <- result{resp.StatusCode, raw, err}
	}()
	select {
	case <-parked:
	case r := <-cold:
		t.Fatalf("cold AIM run ended without parking: %d %s %v", r.status, r.body, r.err)
	}

	clk.advance(time.Minute)
	cresp, craw := postJSON(t, ts.URL+"/v1/characterize",
		&api.CharacterizeRequest{Machine: key.Machine, Method: key.Method, Qubits: key.Width, Force: true})
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("forced characterize: %d %s", cresp.StatusCode, craw)
	}
	unpark()

	first := <-cold
	if first.err != nil {
		t.Fatal(first.err)
	}
	if first.status != http.StatusOK {
		t.Fatalf("cold AIM run: %d %s", first.status, first.body)
	}
	var m1 api.MitigateResponse
	if err := json.Unmarshal(first.body, &m1); err != nil {
		t.Fatal(err)
	}
	if m1.Profile == nil || m1.Profile.Cached || !m1.Profile.LearnedAt.Equal(learnedAt) {
		t.Fatalf("cold AIM run should use its in-line profile learned at %v: %s", learnedAt, first.body)
	}

	resp2, raw2 := postJSON(t, ts.URL+"/v1/mitigate", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat request: %d %s", resp2.StatusCode, raw2)
	}
	var m2 api.MitigateResponse
	if err := json.Unmarshal(raw2, &m2); err != nil {
		t.Fatal(err)
	}
	if m2.CacheHit {
		t.Fatalf("repeat request replayed the result of the replaced profile: %s", raw2)
	}
	if want := learnedAt.Add(time.Minute); m2.Profile == nil || !m2.Profile.LearnedAt.Equal(want) {
		t.Fatalf("repeat request should run on the forced profile learned at %v: %s", want, raw2)
	}
}
