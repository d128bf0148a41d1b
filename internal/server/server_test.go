package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"biasmit/internal/api"
	"biasmit/internal/backend"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/obs"
	"biasmit/internal/profilestore"
)

// testServer spins up the API over httptest with a budget small enough
// for fast tests.
func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		Workers:      2,
		MaxJobs:      2,
		ProfileShots: 64,
		MaxShots:     1 << 16,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
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

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// decodeError asserts the response is the typed error envelope and
// returns the api.Error.
func decodeError(t *testing.T, data []byte) *api.Error {
	t.Helper()
	var env api.ErrorEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("response is not the typed error envelope: %v\n%s", err, data)
	}
	if env.Error == nil || env.Error.Code == "" {
		t.Fatalf("error envelope missing code: %s", data)
	}
	return env.Error
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp, data := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var h api.HealthResponse
	if err := json.Unmarshal(data, &h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz body %s (err %v)", data, err)
	}
}

func TestMitigateBaseline(t *testing.T) {
	_, ts := testServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/mitigate", api.MitigateRequest{
		Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 512, Seed: 7,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out api.MitigateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Outcomes) == 0 || out.Metrics == nil {
		t.Fatalf("incomplete response: %s", data)
	}
	if out.Metrics.PST <= 0.3 || out.Metrics.PST > 1 {
		t.Fatalf("PST %v out of (0.3,1]", out.Metrics.PST)
	}
	// The correct BV answer should dominate a 512-shot baseline run.
	if len(out.Correct) == 0 || out.Outcomes[0].Outcome != out.Correct[0] {
		t.Fatalf("top outcome %q, want the correct answer %v", out.Outcomes[0].Outcome, out.Correct)
	}
}

func TestMitigateDeterministicForFixedSeed(t *testing.T) {
	_, ts := testServer(t)
	req := api.MitigateRequest{Machine: "ibmqx2", Policy: "sim", Benchmark: "bv-4B", Shots: 400, Seed: 11}
	_, first := postJSON(t, ts.URL+"/v1/mitigate", req)
	_, second := postJSON(t, ts.URL+"/v1/mitigate", req)
	var a, b api.MitigateResponse
	if err := json.Unmarshal(first, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &b); err != nil {
		t.Fatal(err)
	}
	a.ElapsedMS, b.ElapsedMS = 0, 0
	a.TraceID, b.TraceID = "", "" // unique per request by design
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same request, different results:\n%+v\n%+v", a, b)
	}
}

func TestMitigateAIMProfileCacheMissThenHit(t *testing.T) {
	s, ts := testServer(t)
	req := api.MitigateRequest{Machine: "ibmqx4", Policy: "aim", Benchmark: "bv-4A", Shots: 600, Seed: 3}

	var out api.MitigateResponse
	_, data := postJSON(t, ts.URL+"/v1/mitigate", req)
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("first AIM run: %v\n%s", err, data)
	}
	if out.Profile == nil || out.Profile.Cached {
		t.Fatalf("first AIM run should characterize (cache miss): %s", data)
	}
	// bv-4A carries an ancilla, so the logical register is 5 bits wide.
	if out.Profile.Method != "brute" || out.Profile.Width != 5 {
		t.Fatalf("profile %+v, want brute/5q", out.Profile)
	}

	_, data = postJSON(t, ts.URL+"/v1/mitigate", req)
	out = api.MitigateResponse{}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Profile == nil || !out.Profile.Cached {
		t.Fatalf("second AIM run should reuse the cached profile: %s", data)
	}

	st := s.Store().StatsSnapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Characterizations != 1 {
		t.Fatalf("cache stats %+v, want 1 hit / 1 miss / 1 characterization", st)
	}

	// The metrics endpoint reports the same story.
	_, metricsBody := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"biasmitd_profile_cache_hits_total 1",
		"biasmitd_profile_cache_misses_total 1",
		`biasmitd_requests_total{route="/v1/mitigate",code="200"} 2`,
		`biasmitd_in_flight_requests{route="/v1/mitigate"} 0`,
		`biasmitd_request_duration_seconds_count{route="/v1/mitigate"} 2`,
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metricsBody)
		}
	}

	// And /v1/profiles lists the one learned profile.
	_, profBody := getBody(t, ts.URL+"/v1/profiles")
	var profs api.ProfilesResponse
	if err := json.Unmarshal(profBody, &profs); err != nil {
		t.Fatal(err)
	}
	if len(profs.Profiles) != 1 || profs.Profiles[0].Stale {
		t.Fatalf("profiles = %s, want one fresh profile", profBody)
	}
}

func TestMitigateBudgetErrorsAreTyped(t *testing.T) {
	_, ts := testServer(t)
	for _, shots := range []int{0, -5, 1 << 17} { // zero, negative, above server cap
		resp, data := postJSON(t, ts.URL+"/v1/mitigate", api.MitigateRequest{
			Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: shots,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("shots=%d: status %d, want 400: %s", shots, resp.StatusCode, data)
		}
		if ae := decodeError(t, data); ae.Code != api.CodeBadBudget {
			t.Fatalf("shots=%d: code %q, want %q", shots, ae.Code, api.CodeBadBudget)
		}
	}
}

func TestMitigateValidationErrors(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name   string
		req    api.MitigateRequest
		status int
		code   string
	}{
		{"unknown machine", api.MitigateRequest{Machine: "ibmqx9", Policy: "baseline", Benchmark: "bv-4A", Shots: 100},
			http.StatusNotFound, api.CodeUnknownMachine},
		{"unknown benchmark", api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "nope-7", Shots: 100},
			http.StatusBadRequest, api.CodeUnknownBenchmark},
		{"unknown policy", api.MitigateRequest{Machine: "ibmqx4", Policy: "psychic", Benchmark: "bv-4A", Shots: 100},
			http.StatusBadRequest, api.CodeBadRequest},
		{"bad qasm", api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", QASM: "garbage;", Shots: 100},
			http.StatusBadRequest, api.CodeBadRequest},
		{"stale-only AIM without profile", api.MitigateRequest{Machine: "ibmqx4", Policy: "aim", Benchmark: "bv-4A",
			Shots: 600, RequireCachedProfile: true}, http.StatusConflict, api.CodeProfileStale},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+"/v1/mitigate", tc.req)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.status, data)
		}
		if ae := decodeError(t, data); ae.Code != tc.code {
			t.Fatalf("%s: code %q, want %q", tc.name, ae.Code, tc.code)
		}
	}
}

// TestMitigateRejectsUnrunnableBeforeAdmission: a SIM mode count SIM
// does not support and a circuit wider than its machine fail validation
// with 400 bad_request, before the request takes an admission slot.
func TestMitigateRejectsUnrunnableBeforeAdmission(t *testing.T) {
	_, ts := testServer(t)
	admissions := func() string {
		t.Helper()
		_, data := getBody(t, ts.URL+"/metrics")
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, `biasmitd_overload_admissions_total{class="mitigate"} `) {
				return line
			}
		}
		t.Fatalf("no mitigate admissions series:\n%s", data)
		return ""
	}
	before := admissions()
	for _, req := range []api.MitigateRequest{
		{Machine: "ibmqx4", Policy: "sim", Benchmark: "bv-4A", Shots: 100, Modes: 3},
		{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-7", Shots: 100},
	} {
		resp, data := postJSON(t, ts.URL+"/v1/mitigate", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status %d, want 400: %s", req, resp.StatusCode, data)
		}
		if ae := decodeError(t, data); ae.Code != api.CodeBadRequest {
			t.Fatalf("%+v: code %q, want %q", req, ae.Code, api.CodeBadRequest)
		}
	}
	if after := admissions(); after != before {
		t.Fatalf("rejected requests were admitted: %q, then %q", before, after)
	}
}

func TestMitigateDeadlineExceeded(t *testing.T) {
	_, ts := testServer(t)
	// Trajectories on all 14 qubits of the machine (ghz-14 touches every
	// one, so the backend cannot compact its register): the run takes
	// far longer than its 1ms deadline.
	resp, data := postJSON(t, ts.URL+"/v1/mitigate", api.MitigateRequest{
		Machine: "ibmq-melbourne", Policy: "baseline", Benchmark: "ghz-14",
		Shots: 4096, TimeoutMS: 1,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, data)
	}
	if ae := decodeError(t, data); ae.Code != api.CodeDeadlineExceeded {
		t.Fatalf("code %q, want %q", ae.Code, api.CodeDeadlineExceeded)
	}
}

// TestPanickingHandlerEndsRequest: a panic on a request path is
// answered 500 internal with the trace ID, and the request still ends:
// the in-flight gauge drops back to 0, the request is counted, and its
// trace is in /debug/traces.
func TestPanickingHandlerEndsRequest(t *testing.T) {
	cfg := Config{
		Workers: 1, MaxJobs: 1, ProfileShots: 64, MaxShots: 1 << 16,
		Logger: obs.NewLogger(io.Discard, obs.LevelInfo),
	}
	cfg.wrapRun = func(backend.Runner) backend.Runner {
		return func(context.Context, *circuit.Circuit, *device.Device, backend.Options) (*dist.Counts, error) {
			panic("injected runner panic")
		}
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, data := postJSON(t, ts.URL+"/v1/mitigate", api.MitigateRequest{
		Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 128, Seed: 3,
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, data)
	}
	ae := decodeError(t, data)
	if ae.Code != api.CodeInternal || ae.TraceID == "" {
		t.Fatalf("error %+v, want code internal with a trace ID", ae)
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`biasmitd_in_flight_requests{route="/v1/mitigate"} 0`,
		`biasmitd_requests_total{route="/v1/mitigate",code="500"} 1`,
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	if _, traces := getBody(t, ts.URL+"/debug/traces"); !bytes.Contains(traces, []byte(ae.TraceID)) {
		t.Fatalf("trace %s not in /debug/traces", ae.TraceID)
	}
}

// TestPanicAfterWriteAbortsResponse: a handler that panics after it
// started its response has its connection aborted, so the client cannot
// take the cut-short body for a whole one, and the request is still
// counted as a 500 with its in-flight gauge back at 0.
func TestPanicAfterWriteAbortsResponse(t *testing.T) {
	s := New(Config{Logger: obs.NewLogger(io.Discard, obs.LevelInfo)})
	mux := http.NewServeMux()
	mux.Handle("/boom", s.instrument(route{pattern: "/boom", handler: func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, `{"partial":`)
		panic("injected panic mid-response")
	}}))
	mux.Handle("/", s.Handler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/boom")
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("a response cut short by a panic read as complete")
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`biasmitd_in_flight_requests{route="/boom"} 0`,
		`biasmitd_requests_total{route="/boom",code="500"} 1`,
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

func TestMitigateQASM(t *testing.T) {
	_, ts := testServer(t)
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q -> c;
`
	resp, data := postJSON(t, ts.URL+"/v1/mitigate", api.MitigateRequest{
		Machine: "ibmqx2", Policy: "baseline", QASM: src, Shots: 256,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out api.MitigateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Outcomes) == 0 {
		t.Fatalf("no outcomes: %s", data)
	}
}

func TestCharacterizeEndpointSharesStoreWithAIM(t *testing.T) {
	_, ts := testServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/characterize", api.CharacterizeRequest{
		Machine: "ibmqx4", Method: "brute", Qubits: 5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var ch api.CharacterizeResponse
	if err := json.Unmarshal(data, &ch); err != nil {
		t.Fatal(err)
	}
	if ch.Cached || ch.Profile.Method != "brute" || len(ch.Strengths) != 32 {
		t.Fatalf("unexpected characterize response: %s", data)
	}

	// An AIM request for the same (machine, width, method) now hits.
	_, data = postJSON(t, ts.URL+"/v1/mitigate", api.MitigateRequest{
		Machine: "ibmqx4", Policy: "aim", Benchmark: "bv-4A", Shots: 600, RequireCachedProfile: true,
	})
	var out api.MitigateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Profile == nil || !out.Profile.Cached {
		t.Fatalf("AIM did not reuse the characterize endpoint's profile: %s", data)
	}

	// Force re-learns even though a fresh profile exists.
	_, data = postJSON(t, ts.URL+"/v1/characterize", api.CharacterizeRequest{
		Machine: "ibmqx4", Method: "brute", Qubits: 5, Force: true,
	})
	ch = api.CharacterizeResponse{}
	if err := json.Unmarshal(data, &ch); err != nil {
		t.Fatal(err)
	}
	if ch.Cached {
		t.Fatalf("force=true reported a cache hit: %s", data)
	}
}

// TestRecharacterizationIsDeterministic pins what lets a profile live
// until something characterizes it again: the simulated devices never
// drift and each key's characterization seed is fixed, so a forced
// re-characterization publishes a new generation with bit-identical
// strengths.
func TestRecharacterizationIsDeterministic(t *testing.T) {
	s := New(Config{Workers: 2, MaxJobs: 2, MaxShots: 1 << 16}) // default profile shots
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, key := range []profilestore.Key{
		{Machine: "ibmqx2", Width: 4, Method: "brute"},
		{Machine: "ibmqx4", Width: 5, Method: "brute"},
		{Machine: "ibmqx4", Width: 5, Method: "esct"},
		{Machine: "ibmq-melbourne", Width: 7, Method: "awct"},
		{Machine: "ibmq-melbourne", Width: 8, Method: "awct"},
	} {
		req := api.CharacterizeRequest{Machine: key.Machine, Method: key.Method, Qubits: key.Width}
		var strengths [2][]float64
		for i, force := range []bool{false, true} {
			req.Force = force
			if resp, data := postJSON(t, ts.URL+"/v1/characterize", req); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s force=%v: status %d: %s", key, force, resp.StatusCode, data)
			}
			if g := s.store.Generation(key); g != uint64(i+1) {
				t.Fatalf("%s force=%v: generation %d, want %d", key, force, g, i+1)
			}
			p, ok := s.store.Get(key)
			if !ok {
				t.Fatalf("%s: no profile cached", key)
			}
			strengths[i] = p.RBMS.Strength
		}
		if len(strengths[0]) != 1<<key.Width || len(strengths[1]) != len(strengths[0]) {
			t.Fatalf("%s: %d and %d strengths, want %d", key, len(strengths[0]), len(strengths[1]), 1<<key.Width)
		}
		for j, v := range strengths[0] {
			if math.Float64bits(v) != math.Float64bits(strengths[1][j]) {
				t.Fatalf("%s: strength[%d] %v re-learned as %v", key, j, v, strengths[1][j])
			}
		}
	}
}

func TestMethodNotAllowedAndNotFound(t *testing.T) {
	_, ts := testServer(t)
	resp, data := getBody(t, ts.URL+"/v1/mitigate")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET mitigate: status %d, want 405", resp.StatusCode)
	}
	if ae := decodeError(t, data); ae.Code != api.CodeMethodNotAllowed {
		t.Fatalf("code %q, want %q", ae.Code, api.CodeMethodNotAllowed)
	}
	resp, data = getBody(t, ts.URL+"/v1/unknown")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route: status %d, want 404", resp.StatusCode)
	}
	if ae := decodeError(t, data); ae.Code != api.CodeNotFound {
		t.Fatalf("code %q, want %q", ae.Code, api.CodeNotFound)
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/mitigate", "application/json",
		strings.NewReader(`{"machine":"ibmqx4","policy":"baseline","benchmark":"bv-4A","shots":100,"shotz":5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
	if ae := decodeError(t, data); ae.Code != api.CodeBadRequest {
		t.Fatalf("code %q, want %q", ae.Code, api.CodeBadRequest)
	}
}
