package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"biasmit/internal/api"
)

// TestParseRetryAfter pins both wire forms of the header: integer
// delta-seconds (including the valid "0" = retry immediately) and the
// HTTP-date form, with negatives clamping to 0 and garbage rejected.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name  string
		value string
		want  time.Duration
		ok    bool
	}{
		{"delta seconds", "30", 30 * time.Second, true},
		{"delta one", "1", time.Second, true},
		{"zero means retry now", "0", 0, true},
		{"negative delta clamps to zero", "-7", 0, true},
		{"surrounding whitespace", "  15 ", 15 * time.Second, true},
		{"http date in the future", now.Add(90 * time.Second).UTC().Format(http.TimeFormat), 90 * time.Second, true},
		{"http date right now", now.UTC().Format(http.TimeFormat), 0, true},
		{"http date in the past clamps to zero", now.Add(-time.Hour).UTC().Format(http.TimeFormat), 0, true},
		{"rfc850 date form", now.Add(2 * time.Minute).UTC().Format("Monday, 02-Jan-06 15:04:05 GMT"), 2 * time.Minute, true},
		{"empty", "", 0, false},
		{"garbage", "soon", 0, false},
		{"fractional seconds are not delta-seconds", "1.5", 0, false},
		{"duration syntax is not on the wire", "30s", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := parseRetryAfter(tc.value, now)
			if got != tc.want || ok != tc.ok {
				t.Fatalf("parseRetryAfter(%q) = %v, %v; want %v, %v", tc.value, got, ok, tc.want, tc.ok)
			}
		})
	}
}

// TestRetryAfterHTTPDateDecodes covers the previously ignored
// HTTP-date form arriving on a typed error.
func TestRetryAfterHTTPDateDecodes(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", time.Now().Add(30*time.Second).UTC().Format(http.TimeFormat))
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"api_version": api.Version,
			"error":       map[string]any{"code": api.CodeOverloaded, "message": "shed"},
		})
	}))
	defer srv.Close()

	cl := New(srv.URL)
	_, err := cl.Profiles(context.Background())
	ae, ok := err.(*api.Error)
	if !ok {
		t.Fatalf("want *api.Error, got %v", err)
	}
	// The date round-trips through formatting, so allow a couple of
	// seconds of truncation and clock skew.
	if ae.RetryAfter < 25*time.Second || ae.RetryAfter > 31*time.Second {
		t.Fatalf("RetryAfter %v, want ≈30s decoded from the HTTP date", ae.RetryAfter)
	}
}
