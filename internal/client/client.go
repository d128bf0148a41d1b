// Package client is the typed Go client of the biasmitd HTTP API. It
// speaks the wire contract defined in internal/api — the same structs
// the server serializes — so request and response shapes are checked at
// compile time on both sides.
//
// Failures surface as *api.Error: the typed envelope the daemon writes,
// restored field-for-field (code, message, HTTP status, and the
// Retry-After cooldown from the header). Callers branch on the stable
// codes, never on message text:
//
//	resp, err := cl.Mitigate(ctx, req)
//	var ae *api.Error
//	if errors.As(err, &ae) && ae.Code == api.CodeOverloaded { ... }
//
// Every call is one round trip: the client never retries, and
// ae.RetryAfter carries the cooldown the daemon advertised.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/obs"
	"biasmit/internal/overload"
)

// WithTraceID attaches a trace ID to ctx so every request issued under
// it carries the X-Trace-Id header and the daemon adopts the caller's
// ID instead of minting one. An empty or malformed id mints a fresh
// ULID. The effective ID is returned alongside the derived context so
// callers can log it before the first round trip.
func WithTraceID(ctx context.Context, id string) (context.Context, string) {
	tr := obs.NewTrace(id, nil)
	return obs.WithTrace(ctx, tr), tr.ID()
}

// Client talks to one biasmitd instance. Construct with New; safe for
// concurrent use (it shares one underlying http.Client).
type Client struct {
	base   string
	http   *http.Client
	apiKey string
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (custom
// transports, test doubles). The default has no client-side timeout;
// use context deadlines per call.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithAPIKey sends key as the X-API-Key header on every request. The
// daemon uses it as the tenant identity for async-job fairness and
// quotas; requests without one share the "anon" tenant.
func WithAPIKey(key string) Option {
	return func(c *Client) { c.apiKey = key }
}

// New returns a client for the daemon at base, e.g.
// "http://127.0.0.1:8080". A scheme-less base is assumed http.
func New(base string, opts ...Option) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Mitigate runs POST /v1/mitigate: one benchmark under one measurement
// policy on one machine. Against a server with the result cache on
// (the daemon default), the response's CacheHit and Coalesced fields
// say whether it replays a stored computation or rode an identical
// in-flight one; the rest of the body is byte-identical to what a
// fresh execution returns, so callers need not branch on either.
func (c *Client) Mitigate(ctx context.Context, req *api.MitigateRequest) (*api.MitigateResponse, error) {
	out := new(api.MitigateResponse)
	if err := c.call(ctx, http.MethodPost, "/v1/mitigate", req, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Characterize runs POST /v1/characterize: learn (or fetch the cached)
// RBMS profile of a machine. The daemon shares one characterization per
// profile among concurrent callers, so a slow call is waiting on the
// run every caller needs.
func (c *Client) Characterize(ctx context.Context, req *api.CharacterizeRequest) (*api.CharacterizeResponse, error) {
	out := new(api.CharacterizeResponse)
	if err := c.call(ctx, http.MethodPost, "/v1/characterize", req, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Profiles runs GET /v1/profiles: the cached profile inventory (up to
// the server's default page cap; use ProfilesPage to iterate a larger
// inventory).
func (c *Client) Profiles(ctx context.Context) (*api.ProfilesResponse, error) {
	out := new(api.ProfilesResponse)
	if err := c.call(ctx, http.MethodGet, "/v1/profiles", nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ProfilesPage runs GET /v1/profiles with pagination. A zero limit
// takes the server default; cursor is the NextCursor of the previous
// page (empty for the first). Iteration ends when NextCursor comes
// back empty.
func (c *Client) ProfilesPage(ctx context.Context, limit int, cursor string) (*api.ProfilesResponse, error) {
	out := new(api.ProfilesResponse)
	if err := c.call(ctx, http.MethodGet, "/v1/profiles"+pageQuery(limit, cursor, nil), nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Traces runs GET /debug/traces: the daemon's recent-request trace
// ring, newest first. A positive limit caps the page; slow narrows the
// listing to the slow-request exemplars instead.
func (c *Client) Traces(ctx context.Context, limit int, slow bool) (*api.TracesResponse, error) {
	q := url.Values{}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if slow {
		q.Set("slow", "1")
	}
	path := "/debug/traces"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	out := new(api.TracesResponse)
	if err := c.call(ctx, http.MethodGet, path, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// pageQuery renders the shared ?limit=/?cursor= pagination parameters,
// merging any route-specific extras.
func pageQuery(limit int, cursor string, extra url.Values) string {
	q := url.Values{}
	for k, vs := range extra {
		q[k] = vs
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// Healthz runs GET /healthz. The daemon serves the health body with an
// HTTP 503 when its job queue is past the high-water mark
// ("unavailable"), and that still decodes here: callers read Status
// rather than an error, so a backed-up daemon is observable, not opaque.
func (c *Client) Healthz(ctx context.Context) (*api.HealthResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, err
	}
	out := new(api.HealthResponse)
	if err := json.Unmarshal(data, out); err == nil && out.Status != "" {
		if out.APIVersion != api.Version {
			return nil, versionError(out.APIVersion)
		}
		return out, nil
	}
	return nil, decodeError(resp, data)
}

// Metrics runs GET /metrics and returns the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp, data)
	}
	return string(data), nil
}

// maxResponseBytes bounds response bodies, mirroring the server's
// request-body cap.
const maxResponseBytes = 8 << 20

// call performs one JSON round-trip.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.apiKey != "" {
		req.Header.Set("X-API-Key", c.apiKey)
	}
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set(api.TraceHeader, id)
	}
	// Deadline propagation: forward the caller's context deadline so the
	// daemon can shed work it cannot finish in the remaining budget
	// instead of computing an answer nobody will read.
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(overload.DeadlineHeader, overload.FormatDeadline(dl))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return decodeError(resp, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	var probe struct {
		APIVersion string `json:"api_version"`
	}
	if err := json.Unmarshal(data, &probe); err == nil && probe.APIVersion != api.Version {
		return versionError(probe.APIVersion)
	}
	return nil
}

// decodeError restores the typed error envelope from a non-2xx
// response, re-attaching the transport-level fields the body does not
// carry: the HTTP status and the Retry-After cooldown.
func decodeError(resp *http.Response, data []byte) error {
	var env api.ErrorEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Error == nil || env.Error.Code == "" {
		return fmt.Errorf("client: HTTP %d with untyped body: %s", resp.StatusCode, truncate(data))
	}
	ae := env.Error
	ae.Status = resp.StatusCode
	if ae.TraceID == "" {
		ae.TraceID = resp.Header.Get(api.TraceHeader)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if d, ok := parseRetryAfter(ra, time.Now()); ok {
			ae.RetryAfter = d
		}
	}
	return ae
}

// parseRetryAfter decodes a Retry-After header value: either
// delta-seconds or an HTTP-date (RFC 9110 §10.2.3). A zero return
// with ok=true means "retry immediately". Negative values (a delta the
// server should not send, or a date already past) clamp to 0: the wait
// is over. Malformed values report ok=false and are ignored.
func parseRetryAfter(value string, now time.Time) (time.Duration, bool) {
	value = strings.TrimSpace(value)
	if secs, err := strconv.ParseInt(value, 10, 64); err == nil {
		if secs <= 0 {
			return 0, true
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(value); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

func versionError(got string) error {
	return fmt.Errorf("client: server speaks api_version %q, this client %q", got, api.Version)
}

func truncate(data []byte) string {
	const max = 256
	if len(data) <= max {
		return string(data)
	}
	return string(data[:max]) + "…"
}
