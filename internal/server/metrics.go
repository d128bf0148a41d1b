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

// metricsRegistry is a minimal hand-rolled registry exposing the
// Prometheus text format from the standard library alone: request
// counters by route and status code, per-route latency histograms, and
// per-route in-flight gauges. The profile-cache counters are appended
// from the store's own stats at render time.
type metricsRegistry struct {
	mu       sync.Mutex
	requests map[string]map[int]uint64 // route -> status code -> count
	latency  map[string]*obs.StageHist // route -> seconds
	inFlight map[string]int            // route -> gauge
}

func newMetricsRegistry() *metricsRegistry {
	return &metricsRegistry{
		requests: make(map[string]map[int]uint64),
		latency:  make(map[string]*obs.StageHist),
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
		h = new(obs.StageHist)
		m.latency[route] = h
	}
	h.Observe(seconds)
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

// counter and gauge render one unlabeled series with its HELP and TYPE
// lines; histogram renders one labeled series of a latency histogram.
func counter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func gauge(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

func histogram(w io.Writer, name, label, value string, h obs.StageHist) {
	var cum uint64
	for i, le := range obs.StageBuckets {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"%g\"} %d\n", name, label, value, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, value, h.Count)
	fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, label, value, h.Sum)
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, value, h.Count)
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
// executor counters, each machine's breaker in machine-name order, and
// the profile and job journals' counters and recovery gauges (nil for a
// memory-only store or queue), in the Prometheus text exposition format.
func (m *metricsRegistry) write(w io.Writer, cache profilestore.Stats, runs resilient.MetricsSnapshot, execs map[string]*machineExec, profiles *persist.JournalStats, jobStats jobs.Stats, jobsJournal *persist.JournalStats) {
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
		histogram(w, "biasmitd_request_duration_seconds", "route", route, *m.latency[route])
	}

	fmt.Fprintln(w, "# HELP biasmitd_in_flight_requests Requests currently being served, by route.")
	fmt.Fprintln(w, "# TYPE biasmitd_in_flight_requests gauge")
	for _, route := range sortedKeys(m.inFlight) {
		fmt.Fprintf(w, "biasmitd_in_flight_requests{route=%q} %d\n", route, m.inFlight[route])
	}

	counter(w, "biasmitd_profile_cache_hits_total", "Profile lookups served from a fresh cache entry.", cache.Hits)
	counter(w, "biasmitd_profile_cache_misses_total", "Profile lookups with no cached entry.", cache.Misses)
	counter(w, "biasmitd_profile_cache_joined_total", "Profile lookups deduplicated onto an in-flight characterization.", cache.Joined)
	counter(w, "biasmitd_profile_characterizations_total", "Request-path characterizations completed.", cache.Characterizations)
	counter(w, "biasmitd_profile_characterize_errors_total", "Request-path characterizations failed.", cache.CharacterizeErrors)
	counter(w, "biasmitd_profile_journal_errors_total", "Journal writes that failed (the in-memory cache kept serving).", cache.JournalErrors)
	fmt.Fprintln(w, "# HELP biasmitd_profile_cache_entries Profiles currently cached.")
	fmt.Fprintln(w, "# TYPE biasmitd_profile_cache_entries gauge")
	fmt.Fprintf(w, "biasmitd_profile_cache_entries %d\n", cache.Entries)

	// journal renders the series both durable journals share, named
	// prefix+suffix; what names the journal in the help text.
	journal := func(prefix, what string, st *persist.JournalStats) {
		if st == nil {
			gauge(w, prefix+"persistence_enabled", "1 when the "+what+" journal is on disk, 0 for memory-only.", 0)
			return
		}
		gauge(w, prefix+"persistence_enabled", "1 when the "+what+" journal is on disk, 0 for memory-only.", 1)
		tail := int64(0)
		if st.Recovery.TailTruncated {
			tail = 1
		}
		gauge(w, prefix+"recovery_wal_tail_truncated", "1 when the last boot dropped a torn tail of the "+what+" WAL (crash mid-append).", tail)
		counter(w, prefix+"wal_appends_total", "Entries committed (written and fsynced) to the "+what+" WAL.", st.WALAppends)
		counter(w, prefix+"wal_append_errors_total", "Entries that failed to commit to the "+what+" WAL.", st.WALAppendErrors)
		gauge(w, prefix+"wal_size_bytes", "Committed bytes currently in the "+what+" WAL.", st.WALSizeBytes)
		counter(w, prefix+"snapshots_total", "Snapshot compactions of the "+what+" journal completed.", st.Snapshots)
		counter(w, prefix+"snapshot_errors_total", "Snapshot compactions of the "+what+" journal failed.", st.SnapshotErrors)
	}
	journal("biasmitd_", "profile", profiles)
	if profiles != nil {
		gauge(w, "biasmitd_profiles_restored", "Profiles reconstructed from snapshot+WAL at the last boot.", int64(profiles.Recovery.Records))
		gauge(w, "biasmitd_recovery_snapshot_profiles", "Profiles the boot-time snapshot held.", int64(profiles.Recovery.SnapshotRecords))
		gauge(w, "biasmitd_recovery_wal_records", "Intact WAL records replayed at the last boot.", int64(profiles.Recovery.WALRecords))
		gauge(w, "biasmitd_recovery_wal_skipped", "Replayed WAL records already folded into the snapshot.", int64(profiles.Recovery.WALSkipped))
		gauge(w, "biasmitd_recovery_invalid_records", "Recovered records dropped by validation.", int64(profiles.Recovery.Invalid))
		gauge(w, "biasmitd_journal_live_records", "Profiles in the durable journal (mirror of the cache gauge).", int64(profiles.LiveRecords))
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
	counter(w, "biasmitd_jobs_submitted_total", "Async job submissions accepted.", jobStats.Submitted)
	counter(w, "biasmitd_jobs_throttled_total", "Async job submissions rejected by a tenant quota.", jobStats.Throttled)
	counter(w, "biasmitd_job_drain_requeues_total", "Running jobs checkpointed back to queued by a drain deadline.", jobStats.DrainRequeues)
	counter(w, "biasmitd_job_journal_errors_total", "Job journal appends that failed (the queue kept going).", jobStats.JournalErrors)
	gauge(w, "biasmitd_jobs_recovered", "Live jobs reconstructed from the journal at the last boot.", int64(jobStats.RecoveredJobs))
	gauge(w, "biasmitd_jobs_recovered_requeued", "Recovered jobs that were mid-run and went back to queued.", int64(jobStats.RecoveredRequeued))
	journal("biasmitd_jobs_", "job", jobsJournal)

	counter(w, "biasmitd_backend_runs_total", "Backend runs started (past the breaker).", runs.Runs)
	counter(w, "biasmitd_backend_retries_total", "Attempts after a run's first, i.e. transient-failure retries.", runs.Retries)
	counter(w, "biasmitd_backend_run_failures_total", "Backend runs that failed after exhausting retries.", runs.Failures)
	counter(w, "biasmitd_breaker_rejections_total", "Runs refused outright by an open circuit breaker.", runs.BreakerRejections)

	fmt.Fprintln(w, "# HELP biasmitd_breaker_state Circuit-breaker state per machine (0 closed, 1 half-open, 2 open).")
	fmt.Fprintln(w, "# TYPE biasmitd_breaker_state gauge")
	machines := sortedKeys(execs)
	for _, name := range machines {
		fmt.Fprintf(w, "biasmitd_breaker_state{machine=%q} %d\n", name, breakerStateValue(execs[name].breaker.State()))
	}
	fmt.Fprintln(w, "# HELP biasmitd_breaker_transitions_total Circuit-breaker state transitions per machine.")
	fmt.Fprintln(w, "# TYPE biasmitd_breaker_transitions_total counter")
	for _, name := range machines {
		st := execs[name].breaker.Stats()
		fmt.Fprintf(w, "biasmitd_breaker_transitions_total{machine=%q,to=\"open\"} %d\n", name, st.Opened)
		fmt.Fprintf(w, "biasmitd_breaker_transitions_total{machine=%q,to=\"half-open\"} %d\n", name, st.HalfOpened)
		fmt.Fprintf(w, "biasmitd_breaker_transitions_total{machine=%q,to=\"closed\"} %d\n", name, st.Closed)
	}
}

// writeOverloadMetrics renders the admission gate: its occupancy and
// per-class admission counters. Written after the registry block by
// /metrics.
func (s *Server) writeOverloadMetrics(w io.Writer) {
	perClass := func(name, help string, v *[3]uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for c := overload.ClassJobs; c <= overload.ClassCharacterize; c++ {
			fmt.Fprintf(w, "%s{class=%q} %d\n", name, c.String(), v[c])
		}
	}
	sheds := int64(0)
	if s.cfg.QueueTimeout > 0 {
		sheds = 1
	}
	gauge(w, "biasmitd_overload_limiter_enabled", "1 when the admission gate sheds requests queued past the queue timeout; 0 when they wait for a slot.", sheds)
	ls := s.limiter.Stats()
	gauge(w, "biasmitd_overload_inflight", "Requests currently holding an admission slot.", int64(ls.Inflight))
	gauge(w, "biasmitd_overload_queued", "Requests waiting in the admission queue.", int64(ls.Queued))
	perClass("biasmitd_overload_admissions_total", "Requests admitted, by priority class.", &ls.Admitted)
	perClass("biasmitd_overload_sheds_total", "Requests shed by admission control, by priority class.", &ls.Shed)
	perClass("biasmitd_overload_queue_timeouts_total", "Queued requests shed at the CoDel queue timeout, by priority class.", &ls.Timeouts)
	counter(w, "biasmitd_overload_evictions_total", "Queued low-class waiters displaced by higher-class arrivals.", ls.Evictions)
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
		histogram(w, "biasmitd_stage_duration_seconds", "stage", name, stages[name])
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
	enabled := int64(0)
	if s.rescache != nil {
		enabled = 1
	}
	gauge(w, "biasmitd_result_cache_enabled", "1 when the content-addressed mitigation result cache is on.", enabled)
	if s.rescache == nil {
		return
	}
	st := s.rescache.Stats()
	counter(w, "biasmitd_result_cache_hits_total", "Mitigation responses replayed byte-for-byte from the result cache.", st.Hits)
	counter(w, "biasmitd_result_cache_misses_total", "Mitigation requests that executed the pipeline (singleflight leaders).", st.Misses)
	counter(w, "biasmitd_result_cache_coalesced_total", "Mitigation requests that attached to an identical in-flight execution.", st.Coalesced)
	counter(w, "biasmitd_result_cache_evictions_total", "Result-cache entries dropped by the LRU bound.", st.Evicted)
	counter(w, "biasmitd_result_cache_invalidations_total", "Result-cache entries dropped because their profile generation went stale.", st.Invalidated)
	counter(w, "biasmitd_result_cache_errors_total", "Cached-path executions that finished with an error (never stored).", st.Errors)
	gauge(w, "biasmitd_result_cache_entries", "Results currently cached.", int64(st.Entries))
	gauge(w, "biasmitd_result_cache_bytes", "Payload bytes currently cached.", st.Bytes)
}
