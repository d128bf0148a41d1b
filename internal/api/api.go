// Package api defines the wire contract of the biasmitd HTTP API: the
// request and response bodies of every route, the stable error envelope,
// and the protocol version string. It is the single source of truth
// shared by the server (internal/server) and the typed Go client
// (internal/client), so the two cannot drift apart — a field added here
// is visible on both sides at compile time.
//
// The package is deliberately free of server and simulator imports; it
// is plain data. See DESIGN.md §"API contract" for the route-by-route
// table.
package api

import (
	"encoding/json"
	"fmt"
	"time"
)

// Version is the protocol version stamped on every response envelope as
// "api_version". Clients should check it before interpreting fields;
// breaking changes bump it and move the routes to a new prefix.
const Version = "v1"

// TraceHeader carries the request's ULID trace ID. The server mints one
// per request when the header is absent or malformed, adopts it when
// valid (so the typed client can pre-assign IDs), and always echoes the
// effective ID back as the same response header. The envelope's
// trace_id field carries the identical value in the body.
const TraceHeader = "X-Trace-Id"

// Stable error codes of the biasmitd API. Clients should branch on
// these, never on message text.
const (
	// CodeBadRequest marks malformed or semantically invalid input.
	CodeBadRequest = "bad_request"
	// CodeBadBudget marks a shot budget outside the accepted range —
	// non-positive, above backend.MaxShots, or above the server's
	// per-request cap.
	CodeBadBudget = "bad_budget"
	// CodeUnknownMachine marks a machine name with no device model.
	CodeUnknownMachine = "unknown_machine"
	// CodeUnknownBenchmark marks an unrecognized benchmark identifier.
	CodeUnknownBenchmark = "unknown_benchmark"
	// CodeProfileStale marks an AIM request that required a cached
	// profile when none is cached.
	CodeProfileStale = "profile_stale"
	// CodeDeadlineExceeded marks a request that ran out of its deadline.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeUpstreamTransient marks a run that kept failing transiently
	// through all of the server's per-run attempts; the request is safe
	// to retry.
	CodeUpstreamTransient = "upstream_transient"
	// CodeOverloaded marks a request shed by admission control: the
	// shedding admission gate's queue was full or timed out, or the
	// request could not finish inside its propagated deadline budget.
	// The response carries a Retry-After header; clients must not retry
	// sooner (HTTP 503). The request did no work and is safe to retry.
	CodeOverloaded = "overloaded"
	// CodeCanceled marks a request whose context was canceled (usually a
	// client disconnect or server drain).
	CodeCanceled = "canceled"
	// CodeBodyTooLarge marks a request body over the server's byte cap;
	// the request was rejected before any of it was processed (HTTP 413).
	CodeBodyTooLarge = "body_too_large"
	// CodeJobNotFound marks a job ID the queue does not know — never
	// issued, or already evicted from the terminal-job retention window.
	CodeJobNotFound = "job_not_found"
	// CodeQuotaExceeded marks a job submission rejected by the tenant's
	// admission quota: too many of the tenant's jobs are already queued
	// or running (HTTP 429). Wait for some to finish and resubmit.
	CodeQuotaExceeded = "quota_exceeded"
	// CodeJobTerminal marks a cancel of a job already in a terminal
	// state (done, failed, or cancelled) — there is nothing to stop.
	CodeJobTerminal = "job_terminal"
	// CodeMethodNotAllowed marks a wrong HTTP method on a known route.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotFound marks an unknown route.
	CodeNotFound = "not_found"
	// CodeInternal marks an unexpected server-side failure.
	CodeInternal = "internal"
)

// Envelope carries the fields common to every response body: the
// protocol version and the request's trace ID. Response types embed
// it; the server stamps both in its JSON writer, so handlers cannot
// forget them.
type Envelope struct {
	APIVersion string `json:"api_version"`
	// TraceID is the request's ULID trace ID — the same value as the
	// X-Trace-Id response header. Quote it when reporting a slow or
	// failed request; the server's /debug/traces and logs key on it.
	TraceID string `json:"trace_id,omitempty"`
}

// SetAPIVersion stamps the version; the server's response writer calls
// it on every body it serializes.
func (e *Envelope) SetAPIVersion(v string) { e.APIVersion = v }

// SetTraceID stamps the trace ID; the server's response writer calls
// it on every body it serializes.
func (e *Envelope) SetTraceID(id string) { e.TraceID = id }

// Error is the stable wire shape of every biasmitd failure: a machine
// readable code plus a human-readable message, delivered as
// {"api_version":...,"error":{"code":...,"message":...}} with the
// matching HTTP status.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// TraceID identifies the failed request for support lookups; it
	// duplicates the envelope's trace_id so the error survives being
	// unwrapped from the envelope (e.g. inside JobInfo.Error).
	TraceID string `json:"trace_id,omitempty"`
	Status  int    `json:"-"` // HTTP status, not serialized
	// RetryAfter, when positive, is surfaced as a Retry-After header —
	// set on overloaded responses with how long the caller should back
	// off. The client restores it from the header, so the field
	// round-trips even though it is not part of the JSON body.
	RetryAfter time.Duration `json:"-"`
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// ErrorEnvelope wraps an Error on the wire.
type ErrorEnvelope struct {
	Envelope
	Error *Error `json:"error"`
}

// MitigateRequest is the body of POST /v1/mitigate.
type MitigateRequest struct {
	// Machine names the device model (ibmqx2, ibmqx4, ibmq-melbourne).
	Machine string `json:"machine"`
	// Policy selects the measurement policy: baseline, sim, or aim.
	Policy string `json:"policy"`
	// Benchmark names a paper workload (bv-4A … qaoa-7) or uses the
	// bv:<key> / prep:<bits> / ghz-<n> shorthands. Mutually exclusive
	// with QASM.
	Benchmark string `json:"benchmark,omitempty"`
	// QASM carries an OpenQASM 2.0 program to run instead of a named
	// benchmark.
	QASM string `json:"qasm,omitempty"`
	// Shots is the trial budget for the run (required).
	Shots int `json:"shots"`
	// Seed makes the run deterministic; zero selects 1.
	Seed int64 `json:"seed,omitempty"`
	// Modes is the SIM inversion-string count (1, 2, 4, or 8; default 4).
	Modes int `json:"modes,omitempty"`
	// CanaryFraction tunes AIM's canary budget (default 0.25).
	CanaryFraction float64 `json:"canary_fraction,omitempty"`
	// K is AIM's adaptive candidate count (default 4).
	K int `json:"k,omitempty"`
	// ProfileMethod forces the AIM characterization method (brute, esct,
	// awct); empty or "auto" picks brute for ≤5 qubits, awct beyond.
	ProfileMethod string `json:"profile_method,omitempty"`
	// RequireCachedProfile makes an AIM request fail with profile_stale
	// instead of characterizing in-line when no profile is cached.
	RequireCachedProfile bool `json:"require_cached_profile,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline
	// (capped at the server maximum).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Top bounds how many outcomes the response lists (default 10).
	Top int `json:"top,omitempty"`
}

// OutcomeCount is one output-histogram row.
type OutcomeCount struct {
	Outcome     string  `json:"outcome"`
	Count       int     `json:"count"`
	Probability float64 `json:"probability"`
}

// PolicyMetrics carries the paper's reliability metrics for a run whose
// correct answer is known.
type PolicyMetrics struct {
	PST  float64 `json:"pst"`
	IST  float64 `json:"ist"`
	ROCA int     `json:"roca"`
}

// AIMCandidate is one canary-phase candidate with its tailored
// inversion string.
type AIMCandidate struct {
	Output     string  `json:"output"`
	Likelihood float64 `json:"likelihood"`
	Inversion  string  `json:"inversion"`
}

// ProfileInfo describes a cached RBMS profile. Stale is always false,
// since a profile never expires; it stays on the wire until the
// end-to-end benchmark's next change.
type ProfileInfo struct {
	Machine            string    `json:"machine"`
	Width              int       `json:"width"`
	Method             string    `json:"method"`
	Layout             []int     `json:"layout"`
	Shots              int       `json:"shots"`
	LearnedAt          time.Time `json:"learned_at"`
	AgeMS              int64     `json:"age_ms"`
	Stale              bool      `json:"stale"`
	Strongest          string    `json:"strongest"`
	HammingCorrelation *float64  `json:"hamming_correlation,omitempty"`
}

// MitigateProfile reports which profile an AIM run used and whether it
// came from the cache.
type MitigateProfile struct {
	ProfileInfo
	Cached bool `json:"cached"`
	// Degraded is always false, so it is never sent. It stays in the
	// struct only because the end-to-end benchmark's answer check still
	// reads it.
	Degraded bool `json:"degraded,omitempty"`
}

// MitigateResponse is the body of a successful POST /v1/mitigate.
type MitigateResponse struct {
	Envelope
	Machine          string           `json:"machine"`
	Benchmark        string           `json:"benchmark"`
	Policy           string           `json:"policy"`
	Shots            int              `json:"shots"`
	Seed             int64            `json:"seed"`
	Layout           []int            `json:"layout"`
	Swaps            int              `json:"swaps"`
	Outcomes         []OutcomeCount   `json:"outcomes"`
	DistinctOutcomes int              `json:"distinct_outcomes"`
	Metrics          *PolicyMetrics   `json:"metrics,omitempty"`
	Correct          []string         `json:"correct,omitempty"`
	Strongest        string           `json:"strongest,omitempty"`
	Candidates       []AIMCandidate   `json:"candidates,omitempty"`
	Profile          *MitigateProfile `json:"profile,omitempty"`
	// Degraded is always false, so it is never sent. It stays in the
	// struct only because the end-to-end benchmark's answer check still
	// reads it.
	Degraded bool `json:"degraded,omitempty"`
	// ServedPolicy is the policy that produced the counts. The server
	// runs the requested policy or fails, so it always equals Policy.
	ServedPolicy string `json:"served_policy"`
	// BrownoutTier is always 0, so it is never sent. It stays in the
	// struct only because the end-to-end benchmark's answer check still
	// reads it.
	BrownoutTier int `json:"brownout_tier,omitempty"`
	// CacheHit is true when this response was served from the result
	// cache: the body (ElapsedMS included) is byte-identical to the
	// response the original computation produced; only the envelope
	// and these two cache-metadata fields are stamped per request.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Coalesced is true when this request attached to an identical
	// in-flight computation and received the same bytes as its leader
	// instead of running the pipeline itself.
	Coalesced bool    `json:"coalesced,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// CharacterizeRequest is the body of POST /v1/characterize. The
// characterization budget is a server setting (-profile-shots), not a
// request field, so every caller of a cached profile gets the same
// quality.
type CharacterizeRequest struct {
	Machine string `json:"machine"`
	// Method is brute, esct, or awct; empty or "auto" picks brute for
	// ≤5 qubits, awct beyond.
	Method string `json:"method,omitempty"`
	// Qubits is the register width to characterize; zero selects
	// min(machine, 5) for brute and the machine size otherwise.
	Qubits int `json:"qubits,omitempty"`
	// Force re-learns the profile even if a fresh one is cached.
	Force bool `json:"force,omitempty"`
	// IncludeStrengths adds the relative per-state strengths to the
	// response (always included for widths ≤ 8).
	IncludeStrengths bool `json:"include_strengths,omitempty"`
	// TimeoutMS overrides the default per-request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// CharacterizeResponse is the body of a successful POST /v1/characterize.
type CharacterizeResponse struct {
	Envelope
	Profile ProfileInfo `json:"profile"`
	Cached  bool        `json:"cached"`
	// Degraded is always false, so it is never sent; it stays until
	// the end-to-end benchmark's next change.
	Degraded  bool      `json:"degraded,omitempty"`
	Strengths []float64 `json:"strengths,omitempty"` // relative, strongest = 1
	ElapsedMS float64   `json:"elapsed_ms"`
}

// ProfilesResponse is the body of GET /v1/profiles. The listing is
// ordered by profile key (machine/width/method) and paginated with
// ?limit= and ?cursor=; NextCursor is set when more pages remain.
type ProfilesResponse struct {
	Envelope
	Profiles []ProfileInfo `json:"profiles"`
	// NextCursor, when non-empty, is the ?cursor= value that fetches
	// the next page. Absent on the last page.
	NextCursor string `json:"next_cursor,omitempty"`
}

// Job types accepted by POST /v1/jobs.
const (
	JobTypeMitigate     = "mitigate"
	JobTypeCharacterize = "characterize"
)

// Job lifecycle states. A job moves queued → running → one of the three
// terminal states; a crash or drain can move it running → queued again
// (counted in JobInfo.Requeues) before it reaches a terminal state
// exactly once.
const (
	JobStateQueued    = "queued"
	JobStateRunning   = "running"
	JobStateDone      = "done"
	JobStateFailed    = "failed"
	JobStateCancelled = "cancelled"
)

// JobSubmitRequest is the body of POST /v1/jobs: exactly one of Mitigate
// or Characterize, matching Type. The submitting tenant is taken from
// the X-API-Key header ("anon" when absent), never from the body.
type JobSubmitRequest struct {
	// Type selects the job kind: "mitigate" or "characterize".
	Type string `json:"type"`
	// Mitigate is the work of a mitigate job — the same body a
	// synchronous POST /v1/mitigate takes, executed identically (same
	// seed ⇒ byte-identical outcomes).
	Mitigate *MitigateRequest `json:"mitigate,omitempty"`
	// Characterize is the work of a characterize job.
	Characterize *CharacterizeRequest `json:"characterize,omitempty"`
	// Priority is the scheduling class: higher runs first within the
	// tenant's share. Zero is the normal class.
	Priority int `json:"priority,omitempty"`
}

// JobInfo is the wire view of one queued/running/finished job.
type JobInfo struct {
	ID       string `json:"id"`
	Type     string `json:"type"`
	State    string `json:"state"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority,omitempty"`
	// SubmittedAt/StartedAt/FinishedAt trace the lifecycle; the latter
	// two are unset until the job reaches the matching state.
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Attempts counts executions started; Requeues counts times the job
	// went back from running to queued (crash recovery, drain).
	Attempts int `json:"attempts,omitempty"`
	Requeues int `json:"requeues,omitempty"`
	// CancelRequested is true once DELETE /v1/jobs/{id} has been
	// accepted for a job that was already running; the job winds down to
	// cancelled asynchronously.
	CancelRequested bool `json:"cancel_requested,omitempty"`
	// Error carries the failure of a failed job (stable code + message).
	Error *Error `json:"error,omitempty"`
	// TraceID is the trace under which the job was submitted. It is
	// persisted with the job spec, so a job recovered after a crash
	// keeps the trace ID its submitter saw.
	TraceID string `json:"trace_id,omitempty"`
}

// JobResponse is the body of POST /v1/jobs (202), GET /v1/jobs/{id},
// and DELETE /v1/jobs/{id}.
type JobResponse struct {
	Envelope
	Job JobInfo `json:"job"`
	// Result is the response body the equivalent synchronous call would
	// have produced (a MitigateResponse or CharacterizeResponse), set
	// once the job is done.
	Result json.RawMessage `json:"result,omitempty"`
}

// JobListResponse is the body of GET /v1/jobs. Results are omitted;
// fetch a job by ID for its result. The listing is ordered by job ID
// (ULIDs, so submission order) and paginated with ?limit= and
// ?cursor=; NextCursor is set when more pages remain.
type JobListResponse struct {
	Envelope
	Jobs []JobInfo `json:"jobs"`
	// NextCursor, when non-empty, is the ?cursor= value that fetches
	// the next page. Absent on the last page.
	NextCursor string `json:"next_cursor,omitempty"`
}

// HealthResponse is the body of GET /healthz. Status is "ok", or
// "unavailable" (HTTP 503) while more async jobs sit queued than the
// server's high-water mark. ProfilesStale is always 0, since a profile never expires; it stays on
// the wire until the end-to-end benchmark's next change.
type HealthResponse struct {
	Envelope
	Status         string `json:"status"`
	UptimeMS       int64  `json:"uptime_ms"`
	ProfilesCached int    `json:"profiles_cached"`
	ProfilesStale  int    `json:"profiles_stale"`
	// JobsQueued/JobsRunning expose the async queue depth; a queue past
	// the server's high-water mark flips Status to "unavailable" (503)
	// so load balancers stop routing new work here.
	JobsQueued  int `json:"jobs_queued"`
	JobsRunning int `json:"jobs_running"`
	// OldestQueuedMS is the age of the oldest still-queued job — the
	// honest backlog signal (a deep queue of fresh jobs is busy; a
	// shallow queue of old jobs is stuck).
	OldestQueuedMS int64 `json:"oldest_queued_ms,omitempty"`
}

// TraceSpan is one completed stage of a trace: its offset from the
// trace start and its wall time, both in milliseconds.
type TraceSpan struct {
	Name       string            `json:"name"`
	StartMS    float64           `json:"start_ms"`
	DurationMS float64           `json:"duration_ms"`
	Tags       map[string]string `json:"tags,omitempty"`
}

// TraceEntry is one finished request or job execution as recorded by
// the server's trace ring buffer.
type TraceEntry struct {
	TraceID string    `json:"trace_id"`
	Route   string    `json:"route"`
	Status  int       `json:"status"`
	Start   time.Time `json:"start"`
	// ElapsedMS is the end-to-end wall time; the spans tile it, so
	// their durations sum to approximately this value.
	ElapsedMS   float64           `json:"elapsed_ms"`
	Spans       []TraceSpan       `json:"spans,omitempty"`
	Annotations []string          `json:"annotations,omitempty"`
	Tags        map[string]string `json:"tags,omitempty"`
}

// TracesResponse is the body of GET /debug/traces: the most recent
// completed traces, newest first. With ?slow=1 the listing is instead
// the retained slow-request exemplars (requests over the server's
// -slow-request threshold).
type TracesResponse struct {
	Envelope
	Traces []TraceEntry `json:"traces"`
	// SlowThresholdMS is the server's slow-request exemplar threshold.
	SlowThresholdMS int64 `json:"slow_threshold_ms"`
}
