package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/server"
)

// jobsDaemon is testDaemon with an identity attached — the job API keys
// fairness and quotas off X-API-Key.
func jobsDaemon(t *testing.T, key string) *Client {
	t.Helper()
	s := server.New(server.Config{
		Workers:      2,
		MaxJobs:      2,
		ProfileShots: 64,
		MaxShots:     1 << 16,
		JobWorkers:   2,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return New(ts.URL, WithAPIKey(key))
}

func TestJobSubmitWaitRoundTrip(t *testing.T) {
	cl := jobsDaemon(t, "team-a")
	ctx := context.Background()

	sub, err := cl.SubmitJob(ctx, &api.JobSubmitRequest{
		Type: api.JobTypeMitigate,
		Mitigate: &api.MitigateRequest{
			Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 256, Seed: 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Job.State != api.JobStateQueued || sub.Job.Tenant != "team-a" {
		t.Fatalf("submitted job %+v, want queued under team-a (WithAPIKey)", sub.Job)
	}

	final, err := cl.WaitJob(ctx, sub.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Job.State != api.JobStateDone {
		t.Fatalf("job ended %s: %+v", final.Job.State, final.Job.Error)
	}
	var out api.MitigateResponse
	if err := json.Unmarshal(final.Result, &out); err != nil {
		t.Fatal(err)
	}
	if out.Machine != "ibmqx4" || len(out.Outcomes) == 0 {
		t.Fatalf("incomplete job result: %s", final.Result)
	}

	// The list API sees the job under its tenant and nowhere else.
	list, err := cl.Jobs(ctx, api.JobStateDone, "team-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sub.Job.ID {
		t.Fatalf("list %+v, want the one done team-a job", list.Jobs)
	}
	other, err := cl.Jobs(ctx, "", "someone-else")
	if err != nil {
		t.Fatal(err)
	}
	if len(other.Jobs) != 0 {
		t.Fatalf("foreign tenant sees %+v", other.Jobs)
	}
}

func TestJobCancelAndTypedErrors(t *testing.T) {
	cl := jobsDaemon(t, "")
	ctx := context.Background()

	// Unknown (but well-formed) ID → typed job_not_found.
	_, err := cl.Job(ctx, "00000000000000000000000000", 0)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeJobNotFound || ae.Status != http.StatusNotFound {
		t.Fatalf("error %v, want typed job_not_found/404", err)
	}

	sub, err := cl.SubmitJob(ctx, &api.JobSubmitRequest{
		Type: api.JobTypeMitigate,
		Mitigate: &api.MitigateRequest{
			// Trajectories on all 14 qubits of the machine (ghz-14
			// touches every one, so the backend cannot compact it): the
			// job is still queued or running when the cancel arrives.
			Machine: "ibmq-melbourne", Policy: "baseline", Benchmark: "ghz-14", Shots: 4096, Seed: 5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CancelJob(ctx, sub.Job.ID); err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitJob(ctx, sub.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Job.State != api.JobStateCancelled {
		t.Fatalf("job ended %s, want cancelled", final.Job.State)
	}
	// A second cancel is the typed terminal conflict.
	_, err = cl.CancelJob(ctx, sub.Job.ID)
	if !errors.As(err, &ae) || ae.Code != api.CodeJobTerminal || ae.Status != http.StatusConflict {
		t.Fatalf("re-cancel error %v, want typed job_terminal/409", err)
	}
}

// TestWaitJobBoundedByContext: WaitJob must give up when the caller's
// context does, not poll forever.
func TestWaitJobBoundedByContext(t *testing.T) {
	// A fake daemon that always reports the job still running.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"api_version":"v1","job":{"id":"00000000000000000000000001","type":"mitigate","state":"running","tenant":"anon","submitted_at":"2026-01-01T00:00:00Z"}}`))
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := New(ts.URL).WaitJob(ctx, "00000000000000000000000001")
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want context.DeadlineExceeded", err)
	}
}
