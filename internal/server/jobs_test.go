package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/chaos"
)

// jobsTestServer spins up a server whose async queue runs one batch at a
// time, so tests can park a slow job on the worker and reason about what
// stays queued behind it.
func jobsTestServer(t *testing.T, quota int) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		Workers:      2,
		MaxJobs:      2,
		ProfileShots: 64,
		MaxShots:     1 << 20,
		ProfileTTL:   time.Hour,
		JobWorkers:   1,
		JobQuota:     quota,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJob submits a job as the given tenant and returns the decoded
// response (or the raw bytes for error assertions).
func postJob(t *testing.T, url, tenant string, body *api.JobSubmitRequest) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-API-Key", tenant)
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

func submitJob(t *testing.T, url, tenant string, body *api.JobSubmitRequest) api.JobResponse {
	t.Helper()
	resp, data := postJob(t, url, tenant, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202: %s", resp.StatusCode, data)
	}
	var out api.JobResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Job.ID == "" || out.Job.State != api.JobStateQueued {
		t.Fatalf("submit response %s, want a queued job with an ID", data)
	}
	return out
}

// waitJob long-polls until the job leaves the non-terminal states.
func waitJob(t *testing.T, url, id string) api.JobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, data := getBody(t, url+"/v1/jobs/"+id+"?wait=2s")
		var out api.JobResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("poll %s: %v\n%s", id, err, data)
		}
		switch out.Job.State {
		case api.JobStateDone, api.JobStateFailed, api.JobStateCancelled:
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, out.Job.State)
		}
	}
}

func baselineJob(shots int, seed int64) *api.JobSubmitRequest {
	return &api.JobSubmitRequest{
		Type: api.JobTypeMitigate,
		Mitigate: &api.MitigateRequest{
			Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: shots, Seed: seed,
		},
	}
}

// slowJob is a baseline job that holds a worker for ~0.7s on 2 vCPUs:
// trajectories on all 14 qubits of the machine. ghz-14 touches every
// qubit, so the backend cannot compact its register; bv-4A there
// touches 5 and, like any run the exact engine takes, finishes in
// milliseconds.
func slowJob(seed int64) *api.JobSubmitRequest {
	job := baselineJob(4096, seed)
	job.Mitigate.Machine = "ibmq-melbourne"
	job.Mitigate.Benchmark = "ghz-14"
	return job
}

func TestJobLifecycleResultMatchesSync(t *testing.T) {
	_, ts := jobsTestServer(t, 0)

	// The synchronous answer for this exact request is the reference.
	req := api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 512, Seed: 7}
	_, syncData := postJSON(t, ts.URL+"/v1/mitigate", req)
	var syncOut api.MitigateResponse
	if err := json.Unmarshal(syncData, &syncOut); err != nil {
		t.Fatal(err)
	}

	sub := submitJob(t, ts.URL, "", &api.JobSubmitRequest{Type: api.JobTypeMitigate, Mitigate: &req})
	if sub.Job.Tenant != "anon" {
		t.Fatalf("tenant %q, want anon without X-API-Key", sub.Job.Tenant)
	}
	final := waitJob(t, ts.URL, sub.Job.ID)
	if final.Job.State != api.JobStateDone || final.Job.Attempts != 1 {
		t.Fatalf("final job %+v, want done after one attempt", final.Job)
	}
	if final.Job.StartedAt == nil || final.Job.FinishedAt == nil {
		t.Fatalf("done job missing lifecycle timestamps: %+v", final.Job)
	}

	var asyncOut api.MitigateResponse
	if err := json.Unmarshal(final.Result, &asyncOut); err != nil {
		t.Fatal(err)
	}
	syncOut.ElapsedMS, asyncOut.ElapsedMS = 0, 0
	syncOut.TraceID, asyncOut.TraceID = "", "" // unique per request by design
	if !reflect.DeepEqual(syncOut, asyncOut) {
		t.Fatalf("async result diverged from the synchronous path:\nsync  %+v\nasync %+v", syncOut, asyncOut)
	}
}

func TestJobCharacterizeAndList(t *testing.T) {
	_, ts := jobsTestServer(t, 0)
	sub := submitJob(t, ts.URL, "team-a", &api.JobSubmitRequest{
		Type:         api.JobTypeCharacterize,
		Characterize: &api.CharacterizeRequest{Machine: "ibmqx4", Method: "brute", Qubits: 4},
	})
	final := waitJob(t, ts.URL, sub.Job.ID)
	if final.Job.State != api.JobStateDone {
		t.Fatalf("characterize job ended %s: %+v", final.Job.State, final.Job.Error)
	}
	var ch api.CharacterizeResponse
	if err := json.Unmarshal(final.Result, &ch); err != nil {
		t.Fatal(err)
	}
	if ch.Profile.Method != "brute" || len(ch.Strengths) != 16 {
		t.Fatalf("unexpected characterize result: %s", final.Result)
	}

	// List filters by state and tenant.
	_, data := getBody(t, ts.URL+"/v1/jobs?state=done&tenant=team-a")
	var list api.JobListResponse
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sub.Job.ID {
		t.Fatalf("filtered list %s, want exactly the one done team-a job", data)
	}
	_, data = getBody(t, ts.URL+"/v1/jobs?tenant=nobody")
	list = api.JobListResponse{}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Fatalf("list for unknown tenant returned %s", data)
	}
	resp, data := getBody(t, ts.URL+"/v1/jobs?state=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus state filter: status %d, want 400: %s", resp.StatusCode, data)
	}
}

func TestJobCancelReachesCancelled(t *testing.T) {
	_, ts := jobsTestServer(t, 0)
	// Park a slow job on the single worker so the next one queues.
	slow := submitJob(t, ts.URL, "", slowJob(1))
	victim := submitJob(t, ts.URL, "", slowJob(2))

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim.Job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d, want 200: %s", resp.StatusCode, data)
	}
	final := waitJob(t, ts.URL, victim.Job.ID)
	if final.Job.State != api.JobStateCancelled {
		t.Fatalf("cancelled job ended %s", final.Job.State)
	}

	// Cancelling a terminal job is a typed conflict.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim.Job.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel: status %d, want 409: %s", resp.StatusCode, data)
	}
	if ae := decodeError(t, data); ae.Code != api.CodeJobTerminal {
		t.Fatalf("re-cancel code %q, want %q", ae.Code, api.CodeJobTerminal)
	}
	waitJob(t, ts.URL, slow.Job.ID)
}

func TestJobTenantQuota(t *testing.T) {
	_, ts := jobsTestServer(t, 1)
	first := submitJob(t, ts.URL, "tenant-a", slowJob(1))

	resp, data := postJob(t, ts.URL, "tenant-a", baselineJob(512, 2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429: %s", resp.StatusCode, data)
	}
	if ae := decodeError(t, data); ae.Code != api.CodeQuotaExceeded {
		t.Fatalf("over-quota code %q, want %q", ae.Code, api.CodeQuotaExceeded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("over-quota response missing Retry-After")
	}

	// The quota is per tenant: another tenant is unaffected.
	other := submitJob(t, ts.URL, "tenant-b", baselineJob(512, 3))
	waitJob(t, ts.URL, other.Job.ID)
	waitJob(t, ts.URL, first.Job.ID)
}

func TestJobSubmitValidation(t *testing.T) {
	_, ts := jobsTestServer(t, 0)
	cases := []struct {
		name   string
		req    *api.JobSubmitRequest
		status int
		code   string
	}{
		{"unknown type", &api.JobSubmitRequest{Type: "psychic"}, http.StatusBadRequest, api.CodeBadRequest},
		{"missing body", &api.JobSubmitRequest{Type: api.JobTypeMitigate}, http.StatusBadRequest, api.CodeBadRequest},
		{"both bodies", &api.JobSubmitRequest{Type: api.JobTypeMitigate,
			Mitigate:     &api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 100},
			Characterize: &api.CharacterizeRequest{Machine: "ibmqx4"}}, http.StatusBadRequest, api.CodeBadRequest},
		{"unknown machine", &api.JobSubmitRequest{Type: api.JobTypeMitigate,
			Mitigate: &api.MitigateRequest{Machine: "ibmqx9", Policy: "baseline", Benchmark: "bv-4A", Shots: 100}},
			http.StatusNotFound, api.CodeUnknownMachine},
		{"unknown policy", &api.JobSubmitRequest{Type: api.JobTypeMitigate,
			Mitigate: &api.MitigateRequest{Machine: "ibmqx4", Policy: "psychic", Benchmark: "bv-4A", Shots: 100}},
			http.StatusBadRequest, api.CodeBadRequest},
		{"bad budget", &api.JobSubmitRequest{Type: api.JobTypeMitigate,
			Mitigate: &api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: -1}},
			http.StatusBadRequest, api.CodeBadBudget},
		{"canary fraction out of range", &api.JobSubmitRequest{Type: api.JobTypeMitigate,
			Mitigate: &api.MitigateRequest{Machine: "ibmqx4", Policy: "aim", Benchmark: "bv-4A", Shots: 100, CanaryFraction: 1.5}},
			http.StatusBadRequest, api.CodeBadRequest},
		{"negative k", &api.JobSubmitRequest{Type: api.JobTypeMitigate,
			Mitigate: &api.MitigateRequest{Machine: "ibmqx4", Policy: "aim", Benchmark: "bv-4A", Shots: 100, K: -1}},
			http.StatusBadRequest, api.CodeBadRequest},
		{"unsupported sim modes", &api.JobSubmitRequest{Type: api.JobTypeMitigate,
			Mitigate: &api.MitigateRequest{Machine: "ibmqx4", Policy: "sim", Benchmark: "bv-4A", Shots: 100, Modes: 3}},
			http.StatusBadRequest, api.CodeBadRequest},
		{"circuit wider than the machine", &api.JobSubmitRequest{Type: api.JobTypeMitigate,
			Mitigate: &api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-7", Shots: 100}},
			http.StatusBadRequest, api.CodeBadRequest},
	}
	for _, tc := range cases {
		resp, data := postJob(t, ts.URL, "", tc.req)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.status, data)
		}
		if ae := decodeError(t, data); ae.Code != tc.code {
			t.Fatalf("%s: code %q, want %q", tc.name, ae.Code, tc.code)
		}
	}
}

// TestJobSubmitRejectsMaxAttempts: a job has no attempt budget of its
// own (the executor retries each backend run), so a submission that
// still carries max_attempts is an unknown field, a 400.
func TestJobSubmitRejectsMaxAttempts(t *testing.T) {
	_, ts := jobsTestServer(t, 0)
	body := `{"type":"mitigate","max_attempts":3,"mitigate":{"machine":"ibmqx4","policy":"baseline","benchmark":"bv-4A","shots":100}}`
	resp, data := doRequest(t, http.MethodPost, ts.URL+"/v1/jobs", body, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
	if ae := decodeError(t, data); ae.Code != api.CodeBadRequest {
		t.Fatalf("code %q, want %q", ae.Code, api.CodeBadRequest)
	}
}

// TestAWCTBelowItsWindowIsBadRequest: AWCT characterizes awctWindow-qubit
// windows, so a forced AWCT on a narrower register is a 400 bad_request
// on both sync routes and at job submission, not a 500 from the run.
func TestAWCTBelowItsWindowIsBadRequest(t *testing.T) {
	_, ts := jobsTestServer(t, 0)
	check := func(name string, resp *http.Response, data []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", name, resp.StatusCode, data)
		}
		if ae := decodeError(t, data); ae.Code != api.CodeBadRequest {
			t.Fatalf("%s: code %q, want %q", name, ae.Code, api.CodeBadRequest)
		}
	}
	char := &api.CharacterizeRequest{Machine: "ibmqx2", Method: "awct", Qubits: awctWindow - 1}
	aim := &api.MitigateRequest{Machine: "ibmqx2", Policy: "aim", Benchmark: "bv:01", Shots: 600, ProfileMethod: "awct"}
	resp, data := postJSON(t, ts.URL+"/v1/characterize", char)
	check("characterize", resp, data)
	resp, data = postJSON(t, ts.URL+"/v1/mitigate", aim)
	check("aim mitigate", resp, data)
	resp, data = postJob(t, ts.URL, "", &api.JobSubmitRequest{Type: api.JobTypeCharacterize, Characterize: char})
	check("characterize job", resp, data)
	resp, data = postJob(t, ts.URL, "", &api.JobSubmitRequest{Type: api.JobTypeMitigate, Mitigate: aim})
	check("aim mitigate job", resp, data)

	// One window wide is enough.
	char.Qubits = awctWindow
	if resp, data := postJSON(t, ts.URL+"/v1/characterize", char); resp.StatusCode != http.StatusOK {
		t.Fatalf("characterize at the window width: status %d: %s", resp.StatusCode, data)
	}
}

func TestJobIDValidationAndNotFound(t *testing.T) {
	_, ts := jobsTestServer(t, 0)
	resp, data := getBody(t, ts.URL+"/v1/jobs/not-a-job-id")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed ID: status %d, want 400: %s", resp.StatusCode, data)
	}
	if ae := decodeError(t, data); ae.Code != api.CodeBadRequest {
		t.Fatalf("malformed ID code %q, want %q", ae.Code, api.CodeBadRequest)
	}
	resp, data = getBody(t, ts.URL+"/v1/jobs/"+strings.Repeat("0", 26))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ID: status %d, want 404: %s", resp.StatusCode, data)
	}
	if ae := decodeError(t, data); ae.Code != api.CodeJobNotFound {
		t.Fatalf("unknown ID code %q, want %q", ae.Code, api.CodeJobNotFound)
	}
}

func TestPostBodyTooLargeIsTyped(t *testing.T) {
	_, ts := jobsTestServer(t, 0)
	// Every POST handler shares the cap; an over-limit body is rejected
	// with the typed 413 before any processing.
	huge := `{"type":"mitigate","mitigate":{"machine":"ibmqx4","policy":"baseline","qasm":"` +
		strings.Repeat("x", maxBodyBytes+1024) + `","shots":100}}`
	for _, path := range []string{"/v1/jobs", "/v1/mitigate"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413", path, resp.StatusCode)
		}
		if ae := decodeError(t, data); ae.Code != api.CodeBodyTooLarge {
			t.Fatalf("%s: code %q, want %q", path, ae.Code, api.CodeBodyTooLarge)
		}
	}
}

func TestJobMetricsExposed(t *testing.T) {
	_, ts := jobsTestServer(t, 0)
	sub := submitJob(t, ts.URL, "", baselineJob(512, 9))
	waitJob(t, ts.URL, sub.Job.ID)

	_, data := getBody(t, ts.URL+"/metrics")
	body := string(data)
	for _, want := range []string{
		`biasmitd_jobs_depth{state="done"} 1`,
		`biasmitd_jobs_depth{state="queued"} 0`,
		`biasmitd_job_transitions_total{state="done"} 1`,
		"biasmitd_jobs_submitted_total 1",
		"biasmitd_jobs_persistence_enabled 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestStalledJobsEndAtDeadline: with every backend call stalled until
// its context ends, each job type fails deadline_exceeded on its first
// attempt once MaxTimeout has passed, and well before twice that. A
// run is bounded by its own deadline; nothing else has to cut it short.
func TestStalledJobsEndAtDeadline(t *testing.T) {
	const maxTimeout = 300 * time.Millisecond
	// Dispatch, unwinding and settling after the deadline, with room
	// for the race detector on 2 vCPUs.
	const slack = 250 * time.Millisecond
	s := New(Config{
		Workers: 2, MaxJobs: 2, ProfileShots: 64, MaxShots: 1 << 16, ProfileTTL: time.Hour,
		JobWorkers: 2, MaxTimeout: maxTimeout, Chaos: chaos.Plan{StallRate: 1},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	mitigate := func(policy string) *api.JobSubmitRequest {
		return &api.JobSubmitRequest{Type: api.JobTypeMitigate, Mitigate: &api.MitigateRequest{
			Machine: "ibmqx4", Policy: policy, Benchmark: "bv-4A", Shots: 512, Seed: 3,
		}}
	}
	characterize := func(method string) *api.JobSubmitRequest {
		return &api.JobSubmitRequest{Type: api.JobTypeCharacterize, Characterize: &api.CharacterizeRequest{
			Machine: "ibmqx2", Method: method, Force: true,
		}}
	}
	ids := map[string]string{}
	for name, spec := range map[string]*api.JobSubmitRequest{
		"mitigate baseline":  mitigate("baseline"),
		"mitigate sim":       mitigate("sim"),
		"mitigate aim":       mitigate("aim"),
		"characterize brute": characterize("brute"),
		"characterize awct":  characterize("awct"),
		"characterize esct":  characterize("esct"),
	} {
		ids[name] = submitJob(t, ts.URL, "", spec).Job.ID
	}
	for name, id := range ids {
		job := waitJob(t, ts.URL, id).Job
		if job.State != api.JobStateFailed || job.Attempts != 1 || job.Error == nil ||
			job.Error.Code != api.CodeDeadlineExceeded {
			t.Fatalf("%s: %s after %d attempts (error %+v), want failed deadline_exceeded on attempt 1",
				name, job.State, job.Attempts, job.Error)
		}
		ran := job.FinishedAt.Sub(*job.StartedAt)
		if ran < maxTimeout || ran > maxTimeout+slack {
			t.Fatalf("%s ran %v, want between MaxTimeout %v and %v", name, ran, maxTimeout, maxTimeout+slack)
		}
	}
}

// TestMitigateTopAboveOutcomesListsThemAll: a top far above the number
// of distinct outcomes lists every outcome, on the sync route and as a
// job alike; the rows are sized by the outcomes, not by the request.
func TestMitigateTopAboveOutcomesListsThemAll(t *testing.T) {
	_, ts := jobsTestServer(t, 0)
	check := func(what string, data []byte) {
		t.Helper()
		var out api.MitigateResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s: %v\n%s", what, err, data)
		}
		if out.DistinctOutcomes == 0 || len(out.Outcomes) != out.DistinctOutcomes {
			t.Fatalf("%s: %d rows for %d distinct outcomes", what, len(out.Outcomes), out.DistinctOutcomes)
		}
	}
	for _, top := range []int{1 << 40, math.MaxInt64} {
		req := &api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 256, Top: top}
		resp, data := postJSON(t, ts.URL+"/v1/mitigate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("top %d: status %d: %s", top, resp.StatusCode, data)
		}
		check("sync", data)
		sub := submitJob(t, ts.URL, "", &api.JobSubmitRequest{Type: api.JobTypeMitigate, Mitigate: req})
		done := waitJob(t, ts.URL, sub.Job.ID)
		if done.Job.State != api.JobStateDone {
			t.Fatalf("top %d: job %s: %+v", top, done.Job.State, done.Job.Error)
		}
		check("job", done.Result)
	}
}
