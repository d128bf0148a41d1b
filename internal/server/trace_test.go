package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/obs"
)

// doRequest issues one request with optional headers and returns the
// response plus its body.
func doRequest(t *testing.T, method, url, body string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
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

// envelopeProbe is the part of every response body under test here.
type envelopeProbe struct {
	APIVersion string    `json:"api_version"`
	TraceID    string    `json:"trace_id"`
	Error      *APIError `json:"error"`
}

// TestErrorEnvelopeFullyStamped drives every route into representative
// error statuses (405 on all of them, plus 400/404/413/429/504 where
// the route can produce them) and requires each failure to be the full
// contract: typed code, api_version, a trace ID on the envelope, on the
// error object, and in the X-Trace-Id header — all three the same ID.
func TestErrorEnvelopeFullyStamped(t *testing.T) {
	s := New(Config{
		Workers:      2,
		MaxJobs:      2,
		ProfileShots: 64,
		MaxShots:     1 << 16,
		ProfileTTL:   time.Hour,
		JobQuota:     1,
		JobWorkers:   1,
	})
	ts := newTestHTTP(t, s)

	// Occupy the single-job tenant quota so a second submission 429s.
	// Trajectories on the 14-qubit machine keep the filler busy.
	slowJob := `{"type":"mitigate","mitigate":{"machine":"ibmq-melbourne","policy":"baseline","benchmark":"bv-4A","shots":4096}}`
	if resp, data := doRequest(t, "POST", ts+"/v1/jobs", slowJob, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("quota-filling job: status %d: %s", resp.StatusCode, data)
	}

	big := `{"machine":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		// First, while the filler above is still occupying the quota —
		// it takes ~300ms, far longer than this case needs.
		{"quota 429", "POST", "/v1/jobs", slowJob, 429, api.CodeQuotaExceeded},
		{"mitigate 405", "GET", "/v1/mitigate", "", 405, CodeMethodNotAllowed},
		{"characterize 405", "GET", "/v1/characterize", "", 405, CodeMethodNotAllowed},
		{"profiles 405", "POST", "/v1/profiles", "{}", 405, CodeMethodNotAllowed},
		{"jobs 405", "PUT", "/v1/jobs", "{}", 405, CodeMethodNotAllowed},
		{"job by id 405", "PUT", "/v1/jobs/01AAAAAAAAAAAAAAAAAAAAAAAA", "{}", 405, CodeMethodNotAllowed},
		{"healthz 405", "POST", "/healthz", "", 405, CodeMethodNotAllowed},
		{"metrics 405", "POST", "/metrics", "", 405, CodeMethodNotAllowed},
		{"debug traces 405", "POST", "/debug/traces", "", 405, CodeMethodNotAllowed},
		{"unknown route 404", "GET", "/v1/nope", "", 404, CodeNotFound},
		{"bad json 400", "POST", "/v1/mitigate", "{not json", 400, CodeBadRequest},
		{"bad limit 400", "GET", "/v1/jobs?limit=0", "", 400, CodeBadRequest},
		{"unknown machine 404", "POST", "/v1/mitigate",
			`{"machine":"nope","policy":"baseline","benchmark":"bv-4A","shots":100}`, 404, CodeUnknownMachine},
		{"oversized body 413", "POST", "/v1/mitigate", big, 413, api.CodeBodyTooLarge},
		{"job not found 404", "GET", "/v1/jobs/01AAAAAAAAAAAAAAAAAAAAAAAA", "", 404, api.CodeJobNotFound},
		{"malformed job id 400", "GET", "/v1/jobs/xyz", "", 400, CodeBadRequest},
		{"deadline 504", "POST", "/v1/mitigate",
			`{"machine":"ibmq-melbourne","policy":"baseline","benchmark":"bv-4A","shots":4096,"timeout_ms":1}`,
			504, CodeDeadlineExceeded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := doRequest(t, tc.method, ts+tc.path, tc.body, nil)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, data)
			}
			var env envelopeProbe
			if err := json.Unmarshal(data, &env); err != nil {
				t.Fatalf("body is not the error envelope: %v\n%s", err, data)
			}
			if env.Error == nil || env.Error.Code != tc.wantCode {
				t.Fatalf("error %+v, want code %q", env.Error, tc.wantCode)
			}
			if env.APIVersion != api.Version {
				t.Fatalf("api_version %q, want %q", env.APIVersion, api.Version)
			}
			header := resp.Header.Get(api.TraceHeader)
			if header == "" || env.TraceID != header || env.Error.TraceID != header {
				t.Fatalf("trace stamping diverged: header=%q envelope=%q error=%q",
					header, env.TraceID, env.Error.TraceID)
			}
		})
	}
}

// newTestHTTP wraps an already-constructed server in httptest.
func newTestHTTP(t *testing.T, s *Server) string {
	t.Helper()
	h := httptest.NewServer(s.Handler())
	t.Cleanup(h.Close)
	return h.URL
}

// TestTraceIDAdoptedAndMinted covers the edge contract: a valid inbound
// X-Trace-Id is adopted verbatim, a malformed one is replaced with a
// fresh mint, and successive requests get distinct IDs.
func TestTraceIDAdoptedAndMinted(t *testing.T) {
	_, ts := testServer(t)
	mine := obs.NewTraceID()
	resp, data := doRequest(t, "GET", ts.URL+"/healthz", "", map[string]string{api.TraceHeader: mine})
	var env envelopeProbe
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get(api.TraceHeader) != mine || env.TraceID != mine {
		t.Fatalf("valid inbound ID not adopted: header=%q envelope=%q want %q",
			resp.Header.Get(api.TraceHeader), env.TraceID, mine)
	}

	resp, _ = doRequest(t, "GET", ts.URL+"/healthz", "", map[string]string{api.TraceHeader: "not-a-ulid"})
	minted := resp.Header.Get(api.TraceHeader)
	if minted == "" || minted == "not-a-ulid" {
		t.Fatalf("malformed inbound ID not replaced: %q", minted)
	}
	resp2, _ := doRequest(t, "GET", ts.URL+"/healthz", "", nil)
	if again := resp2.Header.Get(api.TraceHeader); again == minted || again == "" {
		t.Fatalf("successive requests share trace ID %q", again)
	}
}

// TestDebugTracesSpansAccountForElapsed runs one mitigation under a
// known trace ID and requires /debug/traces to hold it with a span
// breakdown (decode → sample → correct → serialize) whose durations
// stay within the recorded end-to-end time.
func TestDebugTracesSpansAccountForElapsed(t *testing.T) {
	_, ts := testServer(t)
	mine := obs.NewTraceID()
	resp, data := doRequest(t, "POST", ts.URL+"/v1/mitigate",
		`{"machine":"ibmqx4","policy":"baseline","benchmark":"bv-4A","shots":4096,"seed":9}`,
		map[string]string{api.TraceHeader: mine, "Content-Type": "application/json"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mitigate: status %d: %s", resp.StatusCode, data)
	}

	_, data = getBody(t, ts.URL+"/debug/traces")
	var tr api.TracesResponse
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	var entry *api.TraceEntry
	for i := range tr.Traces {
		if tr.Traces[i].TraceID == mine {
			entry = &tr.Traces[i]
		}
	}
	if entry == nil {
		t.Fatalf("trace %s not retained in %d entries: %s", mine, len(tr.Traces), data)
	}
	if entry.Route != "/v1/mitigate" || entry.Status != 200 {
		t.Fatalf("entry route=%q status=%d, want /v1/mitigate 200", entry.Route, entry.Status)
	}
	var sum float64
	seen := map[string]bool{}
	for _, sp := range entry.Spans {
		if sp.DurationMS < 0 || sp.StartMS < 0 {
			t.Fatalf("span %+v has negative timing", sp)
		}
		sum += sp.DurationMS
		seen[sp.Name] = true
	}
	for _, want := range []string{"decode", "sample", "correct", "serialize"} {
		if !seen[want] {
			t.Fatalf("span %q missing from %+v", want, entry.Spans)
		}
	}
	// The spans tile the request, so their sum cannot exceed the
	// end-to-end time by more than rounding; the smoke trace scenario
	// asserts the tight 10% bound where a slow backend dominates.
	if sum > entry.ElapsedMS*1.05+1 {
		t.Fatalf("spans sum to %.2fms, more than the %.2fms end-to-end", sum, entry.ElapsedMS)
	}

	// ?limit= caps the listing; a bad limit is a typed 400.
	_, data = getBody(t, ts.URL+"/debug/traces?limit=1")
	tr = api.TracesResponse{}
	if err := json.Unmarshal(data, &tr); err != nil || len(tr.Traces) != 1 {
		t.Fatalf("limit=1 returned %d traces (err %v)", len(tr.Traces), err)
	}
	resp, data = getBody(t, ts.URL+"/debug/traces?limit=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit: status %d: %s", resp.StatusCode, data)
	}
}

// TestProfilesPagination learns three profiles and walks them in pages
// of two, requiring the cursor to hand out each profile exactly once in
// key order.
func TestProfilesPagination(t *testing.T) {
	_, ts := testServer(t)
	for _, body := range []string{
		`{"machine":"ibmqx2","method":"brute","qubits":2}`,
		`{"machine":"ibmqx4","method":"brute","qubits":3}`,
		`{"machine":"ibmqx4","method":"brute","qubits":5}`,
	} {
		if resp, data := postJSON(t, ts.URL+"/v1/characterize", json.RawMessage(body)); resp.StatusCode != 200 {
			t.Fatalf("characterize %s: %d %s", body, resp.StatusCode, data)
		}
	}
	var got []ProfileInfo
	cursor := ""
	for page := 0; ; page++ {
		url := ts.URL + "/v1/profiles?limit=2"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		_, data := getBody(t, url)
		var pr ProfilesResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		got = append(got, pr.Profiles...)
		if pr.NextCursor == "" {
			break
		}
		cursor = pr.NextCursor
		if page > 3 {
			t.Fatal("pagination did not terminate")
		}
	}
	if len(got) != 3 {
		t.Fatalf("paged %d profiles, want 3: %+v", len(got), got)
	}
	seen := map[string]bool{}
	for _, p := range got {
		key := p.Machine + "/" + p.Method
		if seen[key+string(rune('0'+p.Width))] {
			t.Fatalf("profile %s width %d served twice", key, p.Width)
		}
		seen[key+string(rune('0'+p.Width))] = true
	}
}

// TestJobListPagination submits four jobs and walks them in pages of
// two, requiring ULID order and exactly-once delivery.
func TestJobListPagination(t *testing.T) {
	_, ts := testServer(t)
	for i := 0; i < 4; i++ {
		body := `{"type":"mitigate","mitigate":{"machine":"ibmqx4","policy":"baseline","benchmark":"bv-4A","shots":256}}`
		if resp, data := doRequest(t, "POST", ts.URL+"/v1/jobs", body, nil); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	var ids []string
	cursor := ""
	for page := 0; ; page++ {
		url := ts.URL + "/v1/jobs?limit=2"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		_, data := getBody(t, url)
		var jr api.JobListResponse
		if err := json.Unmarshal(data, &jr); err != nil {
			t.Fatal(err)
		}
		if len(jr.Jobs) > 2 {
			t.Fatalf("page %d has %d jobs, limit 2", page, len(jr.Jobs))
		}
		for _, j := range jr.Jobs {
			ids = append(ids, j.ID)
		}
		if jr.NextCursor == "" {
			break
		}
		cursor = jr.NextCursor
		if page > 4 {
			t.Fatal("pagination did not terminate")
		}
	}
	if len(ids) != 4 {
		t.Fatalf("paged %d jobs, want 4: %v", len(ids), ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("jobs out of ULID order: %v", ids)
		}
	}
}

// TestRoutesDocumented walks the server's route table and requires
// every pattern to appear in docs/API.md — the reference cannot
// silently fall behind the registered surface.
func TestRoutesDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("docs/API.md unreadable: %v", err)
	}
	s := New(Config{Workers: 1, ProfileShots: 16})
	for _, rt := range s.routes() {
		if rt.pattern == "/" {
			continue // the catch-all 404, not an API surface
		}
		if !strings.Contains(string(doc), rt.pattern) {
			t.Errorf("route %s registered but absent from docs/API.md", rt.pattern)
		}
	}
}
