package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/backend"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/jobs"
	"biasmit/internal/overload"
)

// postJSONHeaders is postJSON with request headers.
func postJSONHeaders(t *testing.T, url string, body any, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServedPolicyEchoesWithoutBrownout: every mitigate response says
// what actually ran, which is the requested policy, and its brownout
// tier is 0.
func TestServedPolicyEchoesWithoutBrownout(t *testing.T) {
	_, ts := testServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/mitigate", api.MitigateRequest{
		Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 128, Seed: 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out api.MitigateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.ServedPolicy != "baseline" || out.BrownoutTier != 0 {
		t.Fatalf("served=%q tier=%d, want baseline at tier 0", out.ServedPolicy, out.BrownoutTier)
	}
}

// blockingRuns wraps the backend so every run parks until release is
// closed — a saturated fleet for admission tests.
type blockingRuns struct {
	mu      sync.Mutex
	release chan struct{}
	entered chan struct{}
}

func (b *blockingRuns) wrap(run backend.Runner) backend.Runner {
	return func(ctx context.Context, c *circuit.Circuit, dev *device.Device, opt backend.Options) (*dist.Counts, error) {
		b.mu.Lock()
		entered := b.entered
		b.entered = nil // signal first entry only
		b.mu.Unlock()
		if entered != nil {
			close(entered)
		}
		select {
		case <-b.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return run(ctx, c, dev, opt)
	}
}

// TestAdaptiveLimiterShedsTyped503: with the gate shedding (a queue
// timeout set) and capacity saturated, excess requests are shed after
// the CoDel queue timeout with the typed overloaded error and a
// Retry-After header — not queued behind the stuck work.
func TestAdaptiveLimiterShedsTyped503(t *testing.T) {
	blocker := &blockingRuns{release: make(chan struct{}), entered: make(chan struct{})}
	entered := blocker.entered
	cfg := Config{
		Workers: 1, MaxJobs: 1, ProfileShots: 64, MaxShots: 1 << 16, ProfileTTL: time.Hour,
		QueueTimeout: 5 * time.Millisecond,
	}
	cfg.wrapRun = blocker.wrap
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var once sync.Once
	release := func() { once.Do(func() { close(blocker.release) }) }
	t.Cleanup(release)

	req := api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 128, Seed: 3}
	done := make(chan struct{})
	go func() {
		defer close(done)
		postJSON(t, ts.URL+"/v1/mitigate", req)
	}()
	<-entered // the slot-holder is inside the backend, parked

	start := time.Now()
	resp, data := postJSON(t, ts.URL+"/v1/mitigate", req)
	waited := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	ae := decodeError(t, data)
	if ae.Code != api.CodeOverloaded {
		t.Fatalf("code %q, want %q", ae.Code, api.CodeOverloaded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// Shed, not queued: the wait is the queue timeout, far under the
	// slot-holder's park time.
	if waited > 2*time.Second {
		t.Fatalf("shed took %v — request queued behind stuck work", waited)
	}
	if st := s.limiter.Stats(); st.Timeouts[overload.ClassMitigate] == 0 {
		t.Fatalf("limiter stats %+v recorded no mitigate queue-timeout shed", st)
	}

	release()
	<-done
}

// TestAdmissionGateWaitsHighestClassFirst pins the default admission
// path: with no queue timeout a request that finds every slot taken
// waits instead of being shed, however long the slot-holder runs, and
// freed slots go to the highest class first (characterize, then
// mitigate, then async jobs) rather than in arrival order.
func TestAdmissionGateWaitsHighestClassFirst(t *testing.T) {
	blocker := &blockingRuns{release: make(chan struct{}), entered: make(chan struct{})}
	entered := blocker.entered
	var (
		mu    sync.Mutex
		order []overload.Class // class of each admitted request, in run order
	)
	cfg := Config{Workers: 1, MaxJobs: 1, ProfileShots: 64, MaxShots: 1 << 16, ProfileTTL: time.Hour}
	cfg.wrapRun = func(run backend.Runner) backend.Runner {
		parked := blocker.wrap(run)
		return func(ctx context.Context, c *circuit.Circuit, dev *device.Device, opt backend.Options) (*dist.Counts, error) {
			// MaxJobs 1 runs one request at a time, so consecutive runs
			// of one class belong to one admitted request.
			mu.Lock()
			if cl := overload.ClassFromContext(ctx); len(order) == 0 || order[len(order)-1] != cl {
				order = append(order, cl)
			}
			mu.Unlock()
			return parked(ctx, c, dev, opt)
		}
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var once sync.Once
	release := func() { once.Do(func() { close(blocker.release) }) }
	t.Cleanup(release)

	baseline := func(seed int64) api.MitigateRequest {
		return api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 128, Seed: seed}
	}
	// post runs off the test goroutine, so it reports with t.Error.
	post := func(path string, body any) int {
		raw, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Errorf("POST %s: %v", path, err)
			return 0
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post("/v1/mitigate", baseline(1))
	}()
	select {
	case <-entered: // the slot-holder is inside the backend, parked
	case <-time.After(10 * time.Second):
		t.Fatal("slot-holder never reached the backend")
	}

	// Queue one request per class, lowest class first.
	r := baseline(2)
	resp, data := postJSON(t, ts.URL+"/v1/jobs", api.JobSubmitRequest{Type: api.JobTypeMitigate, Mitigate: &r})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit status %d: %s", resp.StatusCode, data)
	}
	var jr api.JobResponse
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatal(err)
	}
	waitGateQueued(t, s, 1)
	type result struct {
		status int
		waited time.Duration
	}
	mitigated := make(chan result, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		status := post("/v1/mitigate", baseline(3))
		mitigated <- result{status, time.Since(start)}
	}()
	waitGateQueued(t, s, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		post("/v1/characterize", api.CharacterizeRequest{Machine: "ibmqx4", Method: "brute"})
	}()
	waitGateQueued(t, s, 3)

	time.Sleep(200 * time.Millisecond) // far past any shedding queue timeout
	release()
	var got result
	select {
	case got = <-mitigated:
	case <-time.After(10 * time.Second):
		t.Fatal("queued mitigate never returned after the slot freed")
	}
	if got.status != http.StatusOK || got.waited < 150*time.Millisecond {
		t.Fatalf("queued mitigate: status %d after %v, want 200 after waiting over 150ms", got.status, got.waited)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, ok := s.jobq.Get(jr.Job.ID)
		if ok && j.State == jobs.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued job never finished: %+v", j)
		}
		time.Sleep(5 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []overload.Class{overload.ClassMitigate, overload.ClassCharacterize, overload.ClassMitigate, overload.ClassJobs}
	if len(order) != len(want) {
		t.Fatalf("admission order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("admission order %v, want %v (holder, then highest class first)", order, want)
		}
	}
}

// TestJobOutlivesQueueTimeout: with the gate shedding (a 5ms queue
// timeout) and its one slot held by a parked sync run for 200ms, a job
// submitted with no retry field waits at the gate instead of being
// shed, and ends done on its first attempt once the slot frees.
func TestJobOutlivesQueueTimeout(t *testing.T) {
	blocker := &blockingRuns{release: make(chan struct{}), entered: make(chan struct{})}
	entered := blocker.entered
	cfg := Config{
		Workers: 1, MaxJobs: 1, ProfileShots: 64, MaxShots: 1 << 16, ProfileTTL: time.Hour,
		QueueTimeout: 5 * time.Millisecond,
	}
	cfg.wrapRun = blocker.wrap
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var once sync.Once
	release := func() { once.Do(func() { close(blocker.release) }) }
	t.Cleanup(release)

	req := api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 128, Seed: 3}
	syncStatus := make(chan int, 1)
	go func() {
		raw, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/mitigate", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Errorf("sync mitigate: %v", err)
			syncStatus <- 0
			return
		}
		resp.Body.Close()
		syncStatus <- resp.StatusCode
	}()
	<-entered // the slot-holder is inside the backend, parked

	jobReq := req
	jobReq.Seed = 4
	job := submitJob(t, ts.URL, "", &api.JobSubmitRequest{Type: api.JobTypeMitigate, Mitigate: &jobReq})
	waitGateQueued(t, s, 1)            // the job's execution waits at the gate
	time.Sleep(200 * time.Millisecond) // forty queue timeouts
	release()
	if status := <-syncStatus; status != http.StatusOK {
		t.Fatalf("parked sync mitigate: status %d, want 200", status)
	}
	got := waitJob(t, ts.URL, job.Job.ID).Job
	if got.State != api.JobStateDone || got.Attempts != 1 {
		t.Fatalf("job %s on attempt %d (error %+v), want done on attempt 1", got.State, got.Attempts, got.Error)
	}
	if st := s.limiter.Stats(); st.Shed[overload.ClassJobs] != 0 || st.Timeouts[overload.ClassJobs] != 0 {
		t.Fatalf("limiter stats %+v shed a job execution", st)
	}
}

// waitGateQueued polls until the admission gate holds n waiters.
func waitGateQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.limiter.Stats().Queued != n {
		if time.Now().After(deadline) {
			t.Fatalf("admission queue never reached %d waiters (stats %+v)", n, s.limiter.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlineHeaderShedsExpiredBudget: a request whose propagated
// deadline already lapsed is refused up front with the typed overload
// error; a malformed header is the caller's mistake.
func TestDeadlineHeaderShedsExpiredBudget(t *testing.T) {
	_, ts := testServer(t)
	req := api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 128, Seed: 3}

	past := overload.FormatDeadline(time.Now().Add(-time.Second))
	resp, data := postJSONHeaders(t, ts.URL+"/v1/mitigate", req, map[string]string{overload.DeadlineHeader: past})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d for expired budget: %s", resp.StatusCode, data)
	}
	if ae := decodeError(t, data); ae.Code != api.CodeOverloaded {
		t.Fatalf("code %q, want %q", ae.Code, api.CodeOverloaded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("expired-budget shed missing Retry-After")
	}

	resp, data = postJSONHeaders(t, ts.URL+"/v1/mitigate", req, map[string]string{overload.DeadlineHeader: "not-a-time"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d for malformed header: %s", resp.StatusCode, data)
	}
}

// TestJobSubmitPersistsDeadline: the header rides into the durable job
// spec so the scheduler (even post-recovery) can expire it.
func TestJobSubmitPersistsDeadline(t *testing.T) {
	s, ts := testServer(t)
	dl := time.Now().Add(time.Hour).UTC().Truncate(time.Millisecond)
	resp, data := postJSONHeaders(t, ts.URL+"/v1/jobs", api.JobSubmitRequest{
		Type: api.JobTypeMitigate,
		Mitigate: &api.MitigateRequest{
			Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 128, Seed: 3,
		},
	}, map[string]string{overload.DeadlineHeader: overload.FormatDeadline(dl)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var jr api.JobResponse
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatal(err)
	}
	j, ok := s.jobq.Get(jr.Job.ID)
	if !ok {
		t.Fatalf("submitted job %s not in queue", jr.Job.ID)
	}
	if j.Spec.Deadline == nil || !j.Spec.Deadline.Equal(dl) {
		t.Fatalf("spec deadline = %v, want %v", j.Spec.Deadline, dl)
	}
}

// TestHealthzQueueHighWater: backlog past the mark flips readiness to
// 503 so balancers stop routing here, and the depth gauges are visible.
func TestHealthzQueueHighWater(t *testing.T) {
	s := New(Config{
		Workers: 2, MaxJobs: 2, ProfileShots: 64, MaxShots: 1 << 16, ProfileTTL: time.Hour,
		QueueHighWater: 1,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Halt dispatch so submissions stay queued.
	s.DrainJobs(context.Background())
	for i := 0; i < 2; i++ {
		if _, err := s.jobq.Submit(jobs.Spec{Type: "mitigate", Payload: json.RawMessage(`{}`)}); err != nil {
			t.Fatal(err)
		}
	}
	resp, data := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with backlog over high water, want 503: %s", resp.StatusCode, data)
	}
	var h api.HealthResponse
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "unavailable" || h.JobsQueued != 2 {
		t.Fatalf("health %+v, want unavailable with 2 queued", h)
	}
}

// TestMetricsExposeOverload: the admission gate is visible on /metrics
// in its default mode, and reports that it waits rather than sheds.
func TestMetricsExposeOverload(t *testing.T) {
	_, ts := testServer(t)
	resp, data := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if want := "biasmitd_overload_limiter_enabled 0"; !bytes.Contains(data, []byte(want)) {
		t.Fatalf("/metrics missing %q", want)
	}
}
