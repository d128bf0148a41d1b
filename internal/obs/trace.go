// Package obs is the request-scoped observability layer: ULID trace
// IDs, wall-time spans, a leveled JSON logger, and a recorder that
// keeps the last N completed traces for /debug/traces plus per-stage
// latency histograms for /metrics.
//
// The package is deliberately a leaf — standard library only, no
// imports from the rest of the module — so every layer (server, jobs,
// resilient, backend, client) can annotate a trace through the
// context without cycles. Every method on Trace and Span is safe on a
// nil receiver: code paths that run without a trace (tests, library
// use of the executor) pay one nil check and no allocation.
package obs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// maxAnnotations bounds a trace's annotation list so a retry storm
// cannot grow one request's trace without bound.
const maxAnnotations = 32

// SpanData is one completed stage of a trace, offsets relative to the
// trace's start.
type SpanData struct {
	Name       string            `json:"name"`
	StartMS    float64           `json:"start_ms"`
	DurationMS float64           `json:"duration_ms"`
	Tags       map[string]string `json:"tags,omitempty"`
}

// TraceData is a finished trace: the immutable snapshot the recorder
// stores, /debug/traces serves, and the request log line embeds.
type TraceData struct {
	TraceID     string            `json:"trace_id"`
	Route       string            `json:"route"`
	Status      int               `json:"status"`
	Start       time.Time         `json:"start"`
	ElapsedMS   float64           `json:"elapsed_ms"`
	Spans       []SpanData        `json:"spans,omitempty"`
	Annotations []string          `json:"annotations,omitempty"`
	Tags        map[string]string `json:"tags,omitempty"`
}

// Trace accumulates spans, tags, and annotations for one request (or
// one async job execution). It is created at the edge, carried in the
// context, and finished exactly once when the response is written.
// Safe for concurrent use; all methods tolerate a nil receiver.
type Trace struct {
	id    string
	start time.Time
	now   func() time.Time

	mu     sync.Mutex
	spans  []SpanData
	notes  []string
	tags   map[string]string
	capped bool
}

// NewTrace starts a trace now. An empty or malformed id mints a fresh
// one, so callers can pass an inbound X-Trace-Id header unvalidated. A
// nil clock selects time.Now.
func NewTrace(id string, now func() time.Time) *Trace {
	if now == nil {
		now = time.Now
	}
	return NewTraceAt(id, now(), now)
}

// NewTraceAt is NewTrace for a trace that began at start, before its
// first span can be recorded: an async job's trace begins at its
// submission, so its queue wait falls inside the trace.
func NewTraceAt(id string, start time.Time, now func() time.Time) *Trace {
	if now == nil {
		now = time.Now
	}
	if ValidID(id) != nil {
		id = NewTraceID()
	}
	return &Trace{id: id, start: start, now: now}
}

// ID returns the trace ID, or "" on a nil trace.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start returns when the trace began.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// SetTag attaches a key/value to the whole trace (e.g. tenant, job_id).
// Last write per key wins.
func (t *Trace) SetTag(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tags == nil {
		t.tags = make(map[string]string)
	}
	t.tags[key] = value
}

// Annotate appends a free-form event to the trace — retries and
// result-cache outcomes. Bounded; past the cap new
// annotations are dropped and a single "... (truncated)" marker records
// the loss.
func (t *Trace) Annotate(format string, args ...any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.notes) >= maxAnnotations {
		if !t.capped {
			t.capped = true
			t.notes = append(t.notes, "... (truncated)")
		}
		return
	}
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// StartSpan opens a named stage. End it (idempotently) to record its
// wall time. Returns a nil span on a nil trace; that nil span's
// methods are all no-ops.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, name: name, start: t.now()}
}

// AddSpan records a stage that was measured externally, such as a job's
// queue wait computed from timestamps. The span is placed as if it
// ended now and lasted d.
func (t *Trace) AddSpan(name string, d time.Duration) {
	if t == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	end := t.now()
	startMS := end.Add(-d).Sub(t.start).Seconds() * 1e3
	if startMS < 0 {
		startMS = 0
	}
	t.record(SpanData{Name: name, StartMS: startMS, DurationMS: d.Seconds() * 1e3})
}

func (t *Trace) record(sd SpanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, sd)
}

// Finish closes the trace and returns the immutable snapshot. The
// trace remains usable (idempotent snapshots), but by convention it is
// finished once, by whoever minted it.
func (t *Trace) Finish(route string, status int) TraceData {
	if t == nil {
		return TraceData{}
	}
	elapsed := t.now().Sub(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	td := TraceData{
		TraceID:   t.id,
		Route:     route,
		Status:    status,
		Start:     t.start,
		ElapsedMS: elapsed.Seconds() * 1e3,
	}
	if len(t.spans) > 0 {
		td.Spans = append([]SpanData(nil), t.spans...)
	}
	if len(t.notes) > 0 {
		td.Annotations = append([]string(nil), t.notes...)
	}
	if len(t.tags) > 0 {
		td.Tags = make(map[string]string, len(t.tags))
		for k, v := range t.tags {
			td.Tags[k] = v
		}
	}
	return td
}

// Span is one in-progress stage of a trace.
type Span struct {
	tr    *Trace
	name  string
	start time.Time

	mu   sync.Mutex
	tags map[string]string
	done bool
}

// Tag attaches a key/value to this span (e.g. cached=true on the
// characterize stage). Returns the span for chaining.
func (s *Span) Tag(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tags == nil {
		s.tags = make(map[string]string)
	}
	s.tags[key] = value
	return s
}

// End records the span's wall time into its trace. Idempotent; safe on
// a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	tags := s.tags
	s.mu.Unlock()

	end := s.tr.now()
	s.tr.record(SpanData{
		Name:       s.name,
		StartMS:    s.start.Sub(s.tr.start).Seconds() * 1e3,
		DurationMS: end.Sub(s.start).Seconds() * 1e3,
		Tags:       tags,
	})
}

// ctxKey is the private context key carrying the *Trace.
type ctxKey struct{}

// WithTrace returns a context carrying the trace.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil — and nil is fine:
// every Trace/Span method no-ops on nil.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// StartSpan opens a span on the context's trace (no-op span if none).
func StartSpan(ctx context.Context, name string) *Span {
	return FromContext(ctx).StartSpan(name)
}

// Annotate appends an event to the context's trace, if any.
func Annotate(ctx context.Context, format string, args ...any) {
	FromContext(ctx).Annotate(format, args...)
}

// TraceID returns the context's trace ID, or "".
func TraceID(ctx context.Context) string {
	return FromContext(ctx).ID()
}
