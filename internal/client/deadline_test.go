package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"biasmit/internal/overload"
)

// TestDeadlineHeaderForwarded: a context deadline rides to the daemon
// as X-Request-Deadline so the server can shed doomed work early.
func TestDeadlineHeaderForwarded(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get(overload.DeadlineHeader))
		w.Write([]byte(`{"api_version":"v1","profiles":[]}`))
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := New(ts.URL).Profiles(ctx); err != nil {
		t.Fatal(err)
	}
	h, _ := got.Load().(string)
	if h == "" {
		t.Fatal("request carried no deadline header")
	}
	dl, err := overload.ParseDeadline(h)
	if err != nil {
		t.Fatalf("forwarded deadline %q does not parse: %v", h, err)
	}
	if until := time.Until(dl); until < 50*time.Second || until > time.Minute {
		t.Fatalf("forwarded deadline %v out, want ~1m", until)
	}
}

// TestNoDeadlineHeaderWithoutDeadline: a background context adds no
// header — the server default applies.
func TestNoDeadlineHeaderWithoutDeadline(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get(overload.DeadlineHeader))
		w.Write([]byte(`{"api_version":"v1","profiles":[]}`))
	}))
	defer ts.Close()
	if _, err := New(ts.URL).Profiles(context.Background()); err != nil {
		t.Fatal(err)
	}
	if h, _ := got.Load().(string); h != "" {
		t.Fatalf("unexpected deadline header %q", h)
	}
}
