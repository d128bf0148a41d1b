package obs

import (
	"sort"
	"sync"
	"time"
)

// StageBuckets are the latency histogram bounds in seconds, from
// millisecond health checks to multi-second characterizations. The
// per-stage and the server's per-route histograms share them, so stage
// and end-to-end distributions line up on the same dashboard axis.
var StageBuckets = []float64{0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// StageHist is one aggregated latency distribution over StageBuckets.
// The zero value is empty and ready to use.
type StageHist struct {
	Counts []uint64 // per-bucket (non-cumulative), one extra for +Inf
	Sum    float64  // seconds
	Count  uint64
}

// Observe adds one sample, in seconds.
func (h *StageHist) Observe(sec float64) {
	if h.Counts == nil {
		h.Counts = make([]uint64, len(StageBuckets)+1)
	}
	h.Counts[sort.SearchFloat64s(StageBuckets, sec)]++
	h.Sum += sec
	h.Count++
}

// slowExemplars is how many over-threshold traces the exemplar ring
// retains (newest win).
const slowExemplars = 8

// Recorder aggregates finished traces: a last-N ring for
// /debug/traces, a slow-request exemplar ring for /metrics, and
// per-stage latency histograms. Safe for concurrent use and on a nil
// receiver.
type Recorder struct {
	mu     sync.Mutex
	ring   []TraceData // circular, last N completed traces
	next   int
	count  uint64 // total recorded, for ring unwinding
	slow   []TraceData
	snext  int
	scount uint64
	thresh time.Duration
	stages map[string]*StageHist
}

// NewRecorder keeps the last n traces and flags traces slower than
// thresh as slow-request exemplars. n < 1 defaults to 256; thresh <= 0
// defaults to 500ms.
func NewRecorder(n int, thresh time.Duration) *Recorder {
	if n < 1 {
		n = 256
	}
	if thresh <= 0 {
		thresh = 500 * time.Millisecond
	}
	return &Recorder{
		ring:   make([]TraceData, n),
		slow:   make([]TraceData, slowExemplars),
		thresh: thresh,
		stages: make(map[string]*StageHist),
	}
}

// SlowThreshold returns the exemplar threshold.
func (r *Recorder) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return r.thresh
}

// Record folds one finished trace into the rings and histograms.
func (r *Recorder) Record(td TraceData) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring[r.next] = td
	r.next = (r.next + 1) % len(r.ring)
	r.count++
	if time.Duration(td.ElapsedMS*float64(time.Millisecond)) >= r.thresh {
		r.slow[r.snext] = td
		r.snext = (r.snext + 1) % len(r.slow)
		r.scount++
	}
	for _, sp := range td.Spans {
		h := r.stages[sp.Name]
		if h == nil {
			h = new(StageHist)
			r.stages[sp.Name] = h
		}
		h.Observe(sp.DurationMS / 1e3)
	}
}

// unwind copies a circular buffer newest-first: ring holds the last
// min(count, len) entries ending just before next.
func unwind(ring []TraceData, next int, count uint64) []TraceData {
	n := len(ring)
	if count < uint64(n) {
		n = int(count)
	}
	out := make([]TraceData, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ring[((next-1-i)%len(ring)+len(ring))%len(ring)])
	}
	return out
}

// Last returns up to n of the most recent traces, newest first. n < 1
// returns everything retained.
func (r *Recorder) Last(n int) []TraceData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := unwind(r.ring, r.next, r.count)
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Slow returns the retained slow-request exemplars, newest first.
func (r *Recorder) Slow() []TraceData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return unwind(r.slow, r.snext, r.scount)
}

// Stages snapshots the per-stage histograms (deep copies, safe to
// render without the lock).
func (r *Recorder) Stages() map[string]StageHist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]StageHist, len(r.stages))
	for name, h := range r.stages {
		out[name] = StageHist{
			Counts: append([]uint64(nil), h.Counts...),
			Sum:    h.Sum,
			Count:  h.Count,
		}
	}
	return out
}
