package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for deterministic span timing.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestTraceIDShapeAndOrder pins the ULID text form trace IDs and job
// IDs share: every minted ID validates and sorts strictly after the one
// before it, and the validator rejects wrong lengths and characters
// outside the Crockford alphabet.
func TestTraceIDShapeAndOrder(t *testing.T) {
	gen := NewIDGen(nil)
	prev := ""
	for i := 0; i < 10000; i++ {
		id := gen.Next()
		if err := ValidID(id); err != nil {
			t.Fatalf("minted invalid ID: %v", err)
		}
		if id <= prev {
			t.Fatalf("IDs not strictly increasing: %q then %q", prev, id)
		}
		prev = id
	}
	for _, bad := range []string{
		"",
		"short",
		"abcdefghijklmnopqrstuvwxyz",  // lower case
		"0123456789ABCDEFGHJKMNPQRSI", // 27 characters
		strings.Repeat("I", 26),       // excluded alphabet character
	} {
		if err := ValidID(bad); err == nil {
			t.Fatalf("ValidID(%q) accepted", bad)
		}
	}
	if err := ValidID(NewTraceID()); err != nil {
		t.Fatalf("package-level NewTraceID invalid: %v", err)
	}
}

func TestTraceSpansAndFinish(t *testing.T) {
	clk := newFakeClock()
	tr := NewTrace("", clk.now)
	if err := ValidID(tr.ID()); err != nil {
		t.Fatalf("minted trace ID invalid: %v", err)
	}

	clk.advance(10 * time.Millisecond)
	sp := tr.StartSpan("sample")
	clk.advance(40 * time.Millisecond)
	sp.Tag("shots", "512").End()
	sp.End() // idempotent

	tr.AddSpan("queue_wait", 5*time.Millisecond)
	tr.SetTag("tenant", "team-a")
	tr.Annotate("retry %d: %v", 1, fmt.Errorf("transient"))

	clk.advance(50 * time.Millisecond)
	td := tr.Finish("/v1/mitigate", 200)

	if td.TraceID != tr.ID() || td.Route != "/v1/mitigate" || td.Status != 200 {
		t.Fatalf("snapshot header wrong: %+v", td)
	}
	if math.Abs(td.ElapsedMS-100) > 1e-9 {
		t.Fatalf("elapsed = %g ms, want 100", td.ElapsedMS)
	}
	if len(td.Spans) != 2 {
		t.Fatalf("spans = %+v, want 2", td.Spans)
	}
	sample := td.Spans[0]
	if sample.Name != "sample" || math.Abs(sample.StartMS-10) > 1e-9 || math.Abs(sample.DurationMS-40) > 1e-9 {
		t.Fatalf("sample span wrong: %+v", sample)
	}
	if sample.Tags["shots"] != "512" {
		t.Fatalf("sample span lost its tag: %+v", sample)
	}
	qw := td.Spans[1]
	if qw.Name != "queue_wait" || math.Abs(qw.DurationMS-5) > 1e-9 || math.Abs(qw.StartMS-45) > 1e-9 {
		t.Fatalf("queue_wait span wrong: %+v", qw)
	}
	if td.Tags["tenant"] != "team-a" {
		t.Fatalf("trace tag lost: %+v", td.Tags)
	}
	if len(td.Annotations) != 1 || td.Annotations[0] != "retry 1: transient" {
		t.Fatalf("annotations wrong: %+v", td.Annotations)
	}
}

func TestTraceAdoptsValidInboundID(t *testing.T) {
	id := NewTraceID()
	if got := NewTrace(id, nil).ID(); got != id {
		t.Fatalf("valid inbound ID %q replaced with %q", id, got)
	}
	if got := NewTrace("not-a-ulid", nil).ID(); got == "not-a-ulid" {
		t.Fatal("malformed inbound ID adopted verbatim")
	}
}

func TestAnnotationCap(t *testing.T) {
	tr := NewTrace("", nil)
	for i := 0; i < maxAnnotations+10; i++ {
		tr.Annotate("note %d", i)
	}
	td := tr.Finish("r", 200)
	if len(td.Annotations) != maxAnnotations+1 {
		t.Fatalf("got %d annotations, want %d + truncation marker", len(td.Annotations), maxAnnotations)
	}
	if td.Annotations[maxAnnotations] != "... (truncated)" {
		t.Fatalf("last annotation = %q, want truncation marker", td.Annotations[maxAnnotations])
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	tr.SetTag("k", "v")
	tr.Annotate("x")
	tr.AddSpan("s", time.Second)
	sp := tr.StartSpan("s")
	sp.Tag("k", "v")
	sp.End()
	if tr.ID() != "" || tr.Finish("r", 200).TraceID != "" {
		t.Fatal("nil trace produced non-zero data")
	}

	ctx := context.Background()
	if FromContext(ctx) != nil || TraceID(ctx) != "" {
		t.Fatal("empty context yielded a trace")
	}
	StartSpan(ctx, "s").End()
	Annotate(ctx, "x")
	if WithTrace(ctx, nil) != ctx {
		t.Fatal("WithTrace(nil) should return ctx unchanged")
	}

	var lg *Logger
	lg.Info("dropped")
	if lg.Enabled(LevelError) {
		t.Fatal("nil logger claims to be enabled")
	}

	var rec *Recorder
	rec.Record(TraceData{})
	if rec.Last(1) != nil || rec.Slow() != nil || rec.Stages() != nil {
		t.Fatal("nil recorder produced data")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := NewTrace("", nil)
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr || TraceID(ctx) != tr.ID() {
		t.Fatal("context round-trip lost the trace")
	}
	StartSpan(ctx, "stage").End()
	Annotate(ctx, "via ctx")
	td := tr.Finish("r", 200)
	if len(td.Spans) != 1 || len(td.Annotations) != 1 {
		t.Fatalf("context helpers did not reach the trace: %+v", td)
	}
}

func TestLoggerJSONShape(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, LevelInfo)
	lg.now = newFakeClock().now

	lg.Debug("dropped")
	lg.Info("request", "trace_id", "ABC", "status", 200, "elapsed_ms", 12.5,
		"err", fmt.Errorf("boom"), "odd_key")
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("wrote %d lines, want 1 (debug filtered): %q", got, buf.String())
	}

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, buf.String())
	}
	for k, want := range map[string]any{
		"level": "info", "msg": "request", "trace_id": "ABC",
		"status": float64(200), "elapsed_ms": 12.5, "err": "boom", "odd_key": "(MISSING)",
	} {
		if rec[k] != want {
			t.Fatalf("field %q = %v, want %v", k, rec[k], want)
		}
	}
	if _, err := time.Parse(time.RFC3339Nano, rec["ts"].(string)); err != nil {
		t.Fatalf("ts field unparseable: %v", err)
	}

	// Key order is argument order, after the fixed header.
	line := buf.String()
	if !strings.HasPrefix(line, `{"ts":`) ||
		strings.Index(line, `"trace_id"`) > strings.Index(line, `"status"`) {
		t.Fatalf("key order not preserved: %s", line)
	}
}

func TestLoggerLevelsAndLogf(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, LevelWarn)
	lg.Info("nope")
	lg.Warn("yes")
	lg.Error("also")
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("min=warn wrote %d lines, want 2:\n%s", got, buf.String())
	}

	for in, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "WARN": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "": LevelInfo,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel accepted garbage")
	}
}

func TestRecorderRingAndSlow(t *testing.T) {
	rec := NewRecorder(4, 100*time.Millisecond)
	for i := 0; i < 10; i++ {
		rec.Record(TraceData{
			TraceID:   fmt.Sprintf("T%02d", i),
			ElapsedMS: float64(i * 30), // 0,30,...,270: i>=4 crosses 100ms
		})
	}
	last := rec.Last(0)
	if len(last) != 4 {
		t.Fatalf("ring kept %d, want 4", len(last))
	}
	for i, want := range []string{"T09", "T08", "T07", "T06"} {
		if last[i].TraceID != want {
			t.Fatalf("Last[%d] = %q, want %q (newest first)", i, last[i].TraceID, want)
		}
	}
	if got := rec.Last(2); len(got) != 2 || got[0].TraceID != "T09" {
		t.Fatalf("Last(2) = %+v", got)
	}

	slow := rec.Slow()
	if len(slow) != 6 {
		t.Fatalf("slow ring kept %d, want 6 (elapsed >= 100ms)", len(slow))
	}
	if slow[0].TraceID != "T09" || slow[5].TraceID != "T04" {
		t.Fatalf("slow exemplars wrong: %+v", slow)
	}
	for _, td := range slow {
		if td.ElapsedMS < 100 {
			t.Fatalf("fast trace %q in slow ring", td.TraceID)
		}
	}
}

func TestRecorderStages(t *testing.T) {
	rec := NewRecorder(8, time.Second)
	rec.Record(TraceData{Spans: []SpanData{
		{Name: "sample", DurationMS: 40},
		{Name: "sample", DurationMS: 400},
		{Name: "serialize", DurationMS: 1},
	}})
	st := rec.Stages()
	sm := st["sample"]
	if sm.Count != 2 || math.Abs(sm.Sum-0.44) > 1e-9 {
		t.Fatalf("sample stage = %+v", sm)
	}
	// 40ms lands in the (0.02, 0.05] bucket, 400ms in (0.25, 0.5].
	if i := sort.SearchFloat64s(StageBuckets, 0.04); sm.Counts[i] != 1 {
		t.Fatalf("40ms not in bucket %d: %+v", i, sm.Counts)
	}
	if st["serialize"].Count != 1 {
		t.Fatalf("serialize stage = %+v", st["serialize"])
	}
	// Snapshot is a deep copy: mutating it must not corrupt the recorder.
	sm.Counts[0] = 999
	if rec.Stages()["sample"].Counts[0] == 999 {
		t.Fatal("Stages() returned shared storage")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder(16, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rec.Record(TraceData{TraceID: fmt.Sprintf("g%d-%d", g, i),
					ElapsedMS: 5, Spans: []SpanData{{Name: "s", DurationMS: 1}}})
				rec.Last(4)
				rec.Slow()
				rec.Stages()
			}
		}(g)
	}
	wg.Wait()
	if got := rec.Stages()["s"].Count; got != 800 {
		t.Fatalf("stage count = %d, want 800", got)
	}
}
