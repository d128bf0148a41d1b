package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"biasmit/internal/api"
	"biasmit/internal/obs"
)

// TestTraceHeaderForwarded: a trace ID minted (or adopted) with
// WithTraceID rides every request as X-Trace-Id, so the daemon adopts
// the client's ID instead of minting its own.
func TestTraceHeaderForwarded(t *testing.T) {
	var mu sync.Mutex
	var got []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.Header.Get(api.TraceHeader))
		mu.Unlock()
		w.Write([]byte(`{"api_version":"v1","profiles":[]}`))
	}))
	defer ts.Close()
	cl := New(ts.URL)

	// Minted: WithTraceID("") makes one up and reports it.
	ctx, minted := WithTraceID(context.Background(), "")
	if err := obs.ValidID(minted); err != nil {
		t.Fatalf("minted trace ID %q invalid: %v", minted, err)
	}
	if _, err := cl.Profiles(ctx); err != nil {
		t.Fatal(err)
	}

	// Adopted: a valid caller-supplied ID is used verbatim.
	mine := obs.NewTraceID()
	ctx, adopted := WithTraceID(context.Background(), mine)
	if adopted != mine {
		t.Fatalf("WithTraceID(%q) minted %q instead of adopting", mine, adopted)
	}
	if _, err := cl.Profiles(ctx); err != nil {
		t.Fatal(err)
	}

	// Untraced: a bare context sends no header at all.
	if _, err := cl.Profiles(context.Background()); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 || got[0] != minted || got[1] != mine || got[2] != "" {
		t.Fatalf("forwarded trace headers %q, want [%q %q \"\"]", got, minted, mine)
	}
}

// TestErrorTraceIDRestoredFromHeader: an error envelope that omits the
// trace ID from the error object (an old daemon, a proxy) still yields
// a traceable *api.Error — the client backfills it from X-Trace-Id.
func TestErrorTraceIDRestoredFromHeader(t *testing.T) {
	const headerID = "01AAAAAAAAAAAAAAAAAAAAAAAA"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.TraceHeader, headerID)
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"api_version":"v1","error":{"code":"unknown_machine","message":"nope"}}`))
	}))
	defer ts.Close()

	_, err := New(ts.URL).Mitigate(context.Background(), &api.MitigateRequest{
		Machine: "nope", Policy: "baseline", Benchmark: "bv-4A", Shots: 64,
	})
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("error %v (%T), want *api.Error", err, err)
	}
	if ae.TraceID != headerID {
		t.Fatalf("error trace ID %q, want the header's %q", ae.TraceID, headerID)
	}
}
