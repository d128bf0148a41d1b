package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"biasmit/internal/api"
	"biasmit/internal/server"
)

// testDaemon runs the real server in-process; the client exercises the
// same handler stack CI's smoke binary hits over localhost.
func testDaemon(t *testing.T) *Client {
	t.Helper()
	s := server.New(server.Config{
		Workers:      2,
		MaxJobs:      2,
		ProfileShots: 64,
		MaxShots:     1 << 16,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return New(ts.URL)
}

func TestMitigateRoundTrip(t *testing.T) {
	cl := testDaemon(t)
	resp, err := cl.Mitigate(context.Background(), &api.MitigateRequest{
		Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 256, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.APIVersion != api.Version {
		t.Fatalf("api_version %q, want %q", resp.APIVersion, api.Version)
	}
	if resp.Machine != "ibmqx4" || len(resp.Outcomes) == 0 {
		t.Fatalf("incomplete response: %+v", resp)
	}
}

func TestHealthzAndProfilesAndMetrics(t *testing.T) {
	cl := testDaemon(t)
	ctx := context.Background()
	h, err := cl.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health status %q, want ok", h.Status)
	}
	if _, err := cl.Characterize(ctx, &api.CharacterizeRequest{Machine: "ibmqx4"}); err != nil {
		t.Fatal(err)
	}
	profs, err := cl.Profiles(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(profs.Profiles) != 1 || profs.Profiles[0].Machine != "ibmqx4" {
		t.Fatalf("profiles %+v, want one ibmqx4 entry", profs.Profiles)
	}
	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "biasmitd_requests_total") {
		t.Fatalf("metrics exposition missing request counter:\n%s", metrics)
	}
}

// TestTypedErrorRoundTrip pins the error contract: a budget violation
// comes back as *api.Error with the stable code and the HTTP status
// restored from the transport.
func TestTypedErrorRoundTrip(t *testing.T) {
	cl := testDaemon(t)
	_, err := cl.Mitigate(context.Background(), &api.MitigateRequest{
		Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 1 << 41,
	})
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("error %v (%T), want *api.Error", err, err)
	}
	if ae.Code != api.CodeBadBudget || ae.Status != http.StatusBadRequest {
		t.Fatalf("code=%q status=%d, want bad_budget/400", ae.Code, ae.Status)
	}
}

// TestVersionMismatchRejected: a server speaking a different protocol
// version is an error, not a silent misparse.
func TestVersionMismatchRejected(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"api_version":"v999","profiles":[]}`))
	}))
	defer ts.Close()
	_, err := New(ts.URL).Profiles(context.Background())
	if err == nil || !strings.Contains(err.Error(), "v999") {
		t.Fatalf("error %v, want version mismatch", err)
	}
}

func TestUntypedErrorBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text panic page", http.StatusBadGateway)
	}))
	defer ts.Close()
	_, err := New(ts.URL).Profiles(context.Background())
	if err == nil || !strings.Contains(err.Error(), "502") {
		t.Fatalf("error %v, want untyped 502 report", err)
	}
}
