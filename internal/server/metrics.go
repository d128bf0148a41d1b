package server

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"biasmit/internal/jobs"
	"biasmit/internal/obs"
	"biasmit/internal/overload"
	"biasmit/internal/persist"
	"biasmit/internal/profilestore"
	"biasmit/internal/resilient"
)

// latencyBuckets are the histogram upper bounds in seconds. Mitigation
// latency is dominated by the trial loop, so the range runs from
// millisecond health checks to multi-second characterizations.
var latencyBuckets = []float64{0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// histogram is a fixed-bucket latency histogram.
type histogram struct {
	counts []uint64 // per-bucket (non-cumulative), one extra for +Inf
	sum    float64
	total  uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(latencyBuckets, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// metricsRegistry is a minimal hand-rolled registry exposing the
// Prometheus text format from the standard library alone: request
// counters by route and status code, per-route latency histograms, and
// per-route in-flight gauges. The profile-cache counters are appended
// from the store's own stats at render time.
type metricsRegistry struct {
	mu       sync.Mutex
	requests map[string]map[int]uint64 // route -> status code -> count
	latency  map[string]*histogram     // route -> seconds
	inFlight map[string]int            // route -> gauge
}

func newMetricsRegistry() *metricsRegistry {
	return &metricsRegistry{
		requests: make(map[string]map[int]uint64),
		latency:  make(map[string]*histogram),
		inFlight: make(map[string]int),
	}
}

// begin marks a request in flight on route.
func (m *metricsRegistry) begin(route string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inFlight[route]++
}

// end completes a request: decrements the gauge, counts the status code,
// and records the latency.
func (m *metricsRegistry) end(route string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inFlight[route]--
	byCode := m.requests[route]
	if byCode == nil {
		byCode = make(map[int]uint64)
		m.requests[route] = byCode
	}
	byCode[code]++
	h := m.latency[route]
	if h == nil {
		h = newHistogram()
		m.latency[route] = h
	}
	h.observe(seconds)
}

// sortedKeys returns map keys in lexical order so the exposition is
// deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// breakerInfo is one machine's breaker snapshot for the exposition.
type breakerInfo struct {
	machine string
	state   string
	stats   resilient.BreakerStats
}

// breakerStateValue encodes a breaker state as a gauge value: 0 closed,
// 1 half-open, 2 open.
func breakerStateValue(state string) int {
	switch state {
	case resilient.StateHalfOpen:
		return 1
	case resilient.StateOpen:
		return 2
	}
	return 0
}

// write renders the registry plus the profile-cache stats, the resilient
// executor counters, the per-machine breaker snapshots, and the profile
// and job journals' counters and recovery gauges (nil for a memory-only
// store or queue), in the Prometheus text exposition format.
func (m *metricsRegistry) write(w io.Writer, cache profilestore.Stats, runs resilient.MetricsSnapshot, breakers []breakerInfo, profiles *persist.JournalStats, jobStats jobs.Stats, jobsJournal *persist.JournalStats) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP biasmitd_requests_total Completed HTTP requests by route and status code.")
	fmt.Fprintln(w, "# TYPE biasmitd_requests_total counter")
	for _, route := range sortedKeys(m.requests) {
		byCode := m.requests[route]
		codes := make([]int, 0, len(byCode))
		for c := range byCode {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "biasmitd_requests_total{route=%q,code=\"%d\"} %d\n", route, c, byCode[c])
		}
	}

	fmt.Fprintln(w, "# HELP biasmitd_request_duration_seconds Request latency by route.")
	fmt.Fprintln(w, "# TYPE biasmitd_request_duration_seconds histogram")
	for _, route := range sortedKeys(m.latency) {
		h := m.latency[route]
		var cum uint64
		for i, le := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "biasmitd_request_duration_seconds_bucket{route=%q,le=\"%g\"} %d\n", route, le, cum)
		}
		fmt.Fprintf(w, "biasmitd_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", route, h.total)
		fmt.Fprintf(w, "biasmitd_request_duration_seconds_sum{route=%q} %g\n", route, h.sum)
		fmt.Fprintf(w, "biasmitd_request_duration_seconds_count{route=%q} %d\n", route, h.total)
	}

	fmt.Fprintln(w, "# HELP biasmitd_in_flight_requests Requests currently being served, by route.")
	fmt.Fprintln(w, "# TYPE biasmitd_in_flight_requests gauge")
	for _, route := range sortedKeys(m.inFlight) {
		fmt.Fprintf(w, "biasmitd_in_flight_requests{route=%q} %d\n", route, m.inFlight[route])
	}

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("biasmitd_profile_cache_hits_total", "Profile lookups served from a fresh cache entry.", cache.Hits)
	counter("biasmitd_profile_cache_misses_total", "Profile lookups with no cached entry.", cache.Misses)
	counter("biasmitd_profile_cache_expired_total", "Profile lookups whose cached entry had outlived its TTL.", cache.Expired)
	counter("biasmitd_profile_cache_joined_total", "Profile lookups deduplicated onto an in-flight characterization.", cache.Joined)
	counter("biasmitd_profile_characterizations_total", "Request-path characterizations completed.", cache.Characterizations)
	counter("biasmitd_profile_characterize_errors_total", "Request-path characterizations failed.", cache.CharacterizeErrors)
	counter("biasmitd_profile_refreshes_total", "Background profile refreshes completed.", cache.Refreshes)
	counter("biasmitd_profile_refresh_errors_total", "Background profile refreshes failed.", cache.RefreshErrors)
	counter("biasmitd_profile_degraded_serves_total", "Stale profiles served because re-characterization failed.", cache.DegradedServes)
	counter("biasmitd_profile_evictions_total", "Profiles dropped by the max-profiles LRU bound.", cache.Evictions)
	counter("biasmitd_profile_journal_errors_total", "Journal writes that failed (the in-memory cache kept serving).", cache.JournalErrors)
	fmt.Fprintln(w, "# HELP biasmitd_profile_cache_entries Profiles currently cached.")
	fmt.Fprintln(w, "# TYPE biasmitd_profile_cache_entries gauge")
	fmt.Fprintf(w, "biasmitd_profile_cache_entries %d\n", cache.Entries)

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	// journal renders the series both durable journals share, named
	// prefix+suffix; what names the journal in the help text.
	journal := func(prefix, what string, st *persist.JournalStats) {
		if st == nil {
			gauge(prefix+"persistence_enabled", "1 when the "+what+" journal is on disk, 0 for memory-only.", 0)
			return
		}
		gauge(prefix+"persistence_enabled", "1 when the "+what+" journal is on disk, 0 for memory-only.", 1)
		tail := int64(0)
		if st.Recovery.TailTruncated {
			tail = 1
		}
		gauge(prefix+"recovery_wal_tail_truncated", "1 when the last boot dropped a torn tail of the "+what+" WAL (crash mid-append).", tail)
		counter(prefix+"wal_appends_total", "Entries committed (written and fsynced) to the "+what+" WAL.", st.WALAppends)
		counter(prefix+"wal_append_errors_total", "Entries that failed to commit to the "+what+" WAL.", st.WALAppendErrors)
		gauge(prefix+"wal_size_bytes", "Committed bytes currently in the "+what+" WAL.", st.WALSizeBytes)
		counter(prefix+"snapshots_total", "Snapshot compactions of the "+what+" journal completed.", st.Snapshots)
		counter(prefix+"snapshot_errors_total", "Snapshot compactions of the "+what+" journal failed.", st.SnapshotErrors)
	}
	journal("biasmitd_", "profile", profiles)
	if profiles != nil {
		gauge("biasmitd_profiles_restored", "Profiles reconstructed from snapshot+WAL at the last boot.", int64(profiles.Recovery.Records))
		gauge("biasmitd_recovery_snapshot_profiles", "Profiles the boot-time snapshot held.", int64(profiles.Recovery.SnapshotRecords))
		gauge("biasmitd_recovery_wal_records", "Intact WAL records replayed at the last boot.", int64(profiles.Recovery.WALRecords))
		gauge("biasmitd_recovery_wal_skipped", "Replayed WAL records already folded into the snapshot.", int64(profiles.Recovery.WALSkipped))
		gauge("biasmitd_recovery_invalid_records", "Recovered records dropped by validation.", int64(profiles.Recovery.Invalid))
		gauge("biasmitd_journal_live_records", "Profiles in the durable journal (mirror of the cache gauge).", int64(profiles.LiveRecords))
	}

	// Async job queue: depth by state, lifecycle transitions, fairness
	// throttles, and the queue's own durability counters.
	fmt.Fprintln(w, "# HELP biasmitd_jobs_depth Async jobs currently in each lifecycle state.")
	fmt.Fprintln(w, "# TYPE biasmitd_jobs_depth gauge")
	for _, sc := range []struct {
		state string
		n     int
	}{
		{"queued", jobStats.Queued}, {"running", jobStats.Running}, {"done", jobStats.Done},
		{"failed", jobStats.Failed}, {"cancelled", jobStats.Cancelled},
	} {
		fmt.Fprintf(w, "biasmitd_jobs_depth{state=%q} %d\n", sc.state, sc.n)
	}
	fmt.Fprintln(w, "# HELP biasmitd_job_transitions_total Async job entries into each state (queued includes requeues).")
	fmt.Fprintln(w, "# TYPE biasmitd_job_transitions_total counter")
	for _, st := range []jobs.State{jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCancelled} {
		fmt.Fprintf(w, "biasmitd_job_transitions_total{state=%q} %d\n", string(st), jobStats.Transitions[st])
	}
	counter("biasmitd_jobs_submitted_total", "Async job submissions accepted.", jobStats.Submitted)
	counter("biasmitd_jobs_throttled_total", "Async job submissions rejected by a tenant quota.", jobStats.Throttled)
	counter("biasmitd_job_retries_total", "Jobs requeued after a retryable failure.", jobStats.Retries)
	counter("biasmitd_job_drain_requeues_total", "Running jobs checkpointed back to queued by a drain deadline.", jobStats.DrainRequeues)
	counter("biasmitd_job_journal_errors_total", "Job journal appends that failed (the queue kept going).", jobStats.JournalErrors)
	gauge("biasmitd_jobs_recovered", "Live jobs reconstructed from the journal at the last boot.", int64(jobStats.RecoveredJobs))
	gauge("biasmitd_jobs_recovered_requeued", "Recovered jobs that were mid-run and went back to queued.", int64(jobStats.RecoveredRequeued))
	journal("biasmitd_jobs_", "job", jobsJournal)

	counter("biasmitd_backend_runs_total", "Backend runs started (past the breaker).", runs.Runs)
	counter("biasmitd_backend_attempts_total", "Dispatch passes over a run's pending slices.", runs.Attempts)
	counter("biasmitd_backend_retries_total", "Attempts after a run's first, i.e. transient-failure retries.", runs.Retries)
	counter("biasmitd_backend_run_failures_total", "Backend runs that failed after exhausting retries.", runs.Failures)
	counter("biasmitd_salvaged_slices_total", "Completed shot slices carried across a retry instead of re-run.", runs.SalvagedSlices)
	counter("biasmitd_salvaged_shots_total", "Trials inside salvaged slices.", runs.SalvagedShots)
	counter("biasmitd_breaker_rejections_total", "Runs refused outright by an open circuit breaker.", runs.BreakerRejections)

	fmt.Fprintln(w, "# HELP biasmitd_breaker_state Circuit-breaker state per machine (0 closed, 1 half-open, 2 open).")
	fmt.Fprintln(w, "# TYPE biasmitd_breaker_state gauge")
	for _, b := range breakers {
		fmt.Fprintf(w, "biasmitd_breaker_state{machine=%q} %d\n", b.machine, breakerStateValue(b.state))
	}
	fmt.Fprintln(w, "# HELP biasmitd_breaker_transitions_total Circuit-breaker state transitions per machine.")
	fmt.Fprintln(w, "# TYPE biasmitd_breaker_transitions_total counter")
	for _, b := range breakers {
		fmt.Fprintf(w, "biasmitd_breaker_transitions_total{machine=%q,to=\"open\"} %d\n", b.machine, b.stats.Opened)
		fmt.Fprintf(w, "biasmitd_breaker_transitions_total{machine=%q,to=\"half-open\"} %d\n", b.machine, b.stats.HalfOpened)
		fmt.Fprintf(w, "biasmitd_breaker_transitions_total{machine=%q,to=\"closed\"} %d\n", b.machine, b.stats.Closed)
	}
	counter("biasmitd_retry_budget_denials_total", "Backend retries blocked by the shared retry budget.", runs.BudgetDenials)
}

// writeOverloadMetrics renders the overload-control subsystem: the
// adaptive limiter's ceiling and per-class admission counters, the
// retry budget's token level, brownout tier transitions, and watchdog
// stall recoveries. Written after the registry block by /metrics.
func (s *Server) writeOverloadMetrics(w io.Writer) {
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	enabled := int64(0)
	if s.limiter != nil {
		enabled = 1
	}
	gauge("biasmitd_overload_limiter_enabled", "1 when the adaptive concurrency limiter gates admissions.", enabled)
	if s.limiter != nil {
		ls := s.limiter.Stats()
		fmt.Fprintln(w, "# HELP biasmitd_overload_limit Current adaptive in-flight ceiling.")
		fmt.Fprintln(w, "# TYPE biasmitd_overload_limit gauge")
		fmt.Fprintf(w, "biasmitd_overload_limit %g\n", ls.Limit)
		gauge("biasmitd_overload_inflight", "Requests currently holding an admission slot.", int64(ls.Inflight))
		gauge("biasmitd_overload_queued", "Requests waiting in the admission queue.", int64(ls.Queued))
		fmt.Fprintln(w, "# HELP biasmitd_overload_admissions_total Requests admitted, by priority class.")
		fmt.Fprintln(w, "# TYPE biasmitd_overload_admissions_total counter")
		for c := overload.ClassJobs; c <= overload.ClassCharacterize; c++ {
			fmt.Fprintf(w, "biasmitd_overload_admissions_total{class=%q} %d\n", c.String(), ls.Admitted[c])
		}
		fmt.Fprintln(w, "# HELP biasmitd_overload_sheds_total Requests shed by admission control, by priority class.")
		fmt.Fprintln(w, "# TYPE biasmitd_overload_sheds_total counter")
		for c := overload.ClassJobs; c <= overload.ClassCharacterize; c++ {
			fmt.Fprintf(w, "biasmitd_overload_sheds_total{class=%q} %d\n", c.String(), ls.Shed[c])
		}
		fmt.Fprintln(w, "# HELP biasmitd_overload_queue_timeouts_total Queued requests shed at the CoDel queue timeout, by priority class.")
		fmt.Fprintln(w, "# TYPE biasmitd_overload_queue_timeouts_total counter")
		for c := overload.ClassJobs; c <= overload.ClassCharacterize; c++ {
			fmt.Fprintf(w, "biasmitd_overload_queue_timeouts_total{class=%q} %d\n", c.String(), ls.Timeouts[c])
		}
		counter("biasmitd_overload_limit_raises_total", "Adaptive-limit increases (latency at baseline).", ls.AdjustUp)
		counter("biasmitd_overload_limit_cuts_total", "Adaptive-limit multiplicative decreases (latency inflated).", ls.AdjustDown)
		counter("biasmitd_overload_evictions_total", "Queued low-class waiters displaced by higher-class arrivals.", ls.Evictions)
	}
	if s.budget != nil {
		bs := s.budget.Stats()
		fmt.Fprintln(w, "# HELP biasmitd_retry_budget_tokens Retry tokens currently available.")
		fmt.Fprintln(w, "# TYPE biasmitd_retry_budget_tokens gauge")
		fmt.Fprintf(w, "biasmitd_retry_budget_tokens %g\n", bs.Tokens)
		counter("biasmitd_retry_budget_allowed_total", "Retries the budget admitted.", bs.Allowed)
		counter("biasmitd_retry_budget_denied_total", "Retries the budget refused.", bs.Denied)
	}
	br := s.brown.Stats()
	gauge("biasmitd_brownout_tier", "Current brownout tier (0 full, 1 sim, 2 baseline).", int64(br.Tier))
	counter("biasmitd_brownout_steps_down_total", "Brownout tier degradations under admission pressure.", br.StepsDown)
	counter("biasmitd_brownout_steps_up_total", "Brownout tier recoveries after sustained calm.", br.StepsUp)
	ws := s.watchdog.Stats()
	gauge("biasmitd_watchdog_tasks", "Executing async jobs the watchdog is watching.", int64(ws.Tasks))
	counter("biasmitd_watchdog_stalls_total", "Stalled jobs the watchdog cancelled and requeued.", ws.Stalls)
}

// writeTraceMetrics renders the tracing layer: per-stage latency
// histograms aggregated from finished spans, and the retained
// slow-request exemplars — trace IDs a debugger can paste straight
// into GET /debug/traces. Written after the overload block by
// /metrics.
func (s *Server) writeTraceMetrics(w io.Writer) {
	stages := s.traces.Stages()
	fmt.Fprintln(w, "# HELP biasmitd_stage_duration_seconds Per-stage span latency across traced requests and jobs.")
	fmt.Fprintln(w, "# TYPE biasmitd_stage_duration_seconds histogram")
	for _, name := range sortedKeys(stages) {
		h := stages[name]
		var cum uint64
		for i, le := range obs.StageBuckets {
			cum += h.Counts[i]
			fmt.Fprintf(w, "biasmitd_stage_duration_seconds_bucket{stage=%q,le=\"%g\"} %d\n", name, le, cum)
		}
		fmt.Fprintf(w, "biasmitd_stage_duration_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", name, h.Count)
		fmt.Fprintf(w, "biasmitd_stage_duration_seconds_sum{stage=%q} %g\n", name, h.Sum)
		fmt.Fprintf(w, "biasmitd_stage_duration_seconds_count{stage=%q} %d\n", name, h.Count)
	}
	fmt.Fprintln(w, "# HELP biasmitd_slow_request_threshold_seconds Elapsed time past which a request is retained as a slow exemplar.")
	fmt.Fprintln(w, "# TYPE biasmitd_slow_request_threshold_seconds gauge")
	fmt.Fprintf(w, "biasmitd_slow_request_threshold_seconds %g\n", s.traces.SlowThreshold().Seconds())
	fmt.Fprintln(w, "# HELP biasmitd_slow_request_seconds Elapsed seconds of retained slow-request exemplars, newest first.")
	fmt.Fprintln(w, "# TYPE biasmitd_slow_request_seconds gauge")
	for _, td := range s.traces.Slow() {
		fmt.Fprintf(w, "biasmitd_slow_request_seconds{trace_id=%q,route=%q} %g\n", td.TraceID, td.Route, td.ElapsedMS/1e3)
	}
}

// writeResultCacheMetrics renders the content-addressed result cache:
// hit/miss/coalesce/evict/invalidate counters and the entry/byte
// gauges. Written after the overload block by /metrics.
func (s *Server) writeResultCacheMetrics(w io.Writer) {
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	enabled := int64(0)
	if s.rescache != nil {
		enabled = 1
	}
	gauge("biasmitd_result_cache_enabled", "1 when the content-addressed mitigation result cache is on.", enabled)
	if s.rescache == nil {
		return
	}
	st := s.rescache.Stats()
	counter("biasmitd_result_cache_hits_total", "Mitigation responses replayed byte-for-byte from the result cache.", st.Hits)
	counter("biasmitd_result_cache_misses_total", "Mitigation requests that executed the pipeline (singleflight leaders).", st.Misses)
	counter("biasmitd_result_cache_coalesced_total", "Mitigation requests that attached to an identical in-flight execution.", st.Coalesced)
	counter("biasmitd_result_cache_evictions_total", "Result-cache entries dropped by the LRU bound.", st.Evicted)
	counter("biasmitd_result_cache_invalidations_total", "Result-cache entries dropped because their profile generation went stale.", st.Invalidated)
	counter("biasmitd_result_cache_errors_total", "Cached-path executions that finished with an error (never stored).", st.Errors)
	gauge("biasmitd_result_cache_entries", "Results currently cached.", int64(st.Entries))
	gauge("biasmitd_result_cache_bytes", "Payload bytes currently cached.", st.Bytes)
}
