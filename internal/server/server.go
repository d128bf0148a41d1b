// Package server implements biasmitd's HTTP/JSON API: readout-error
// mitigation as a service over the simulated machine models.
//
// The daemon inverts the CLI workflow. Instead of every invocation
// re-learning the machine's RBMS profile and exiting, a long-lived
// process holds a profile cache (internal/profilestore) and serves
// mitigation requests against it:
//
//	POST /v1/mitigate     run a benchmark under baseline/SIM/AIM
//	POST /v1/characterize learn (or reuse) an RBMS profile
//	GET  /v1/profiles     list cached profiles and their age
//	GET  /healthz         liveness probe
//	GET  /metrics         Prometheus text metrics
//
// Requests carry explicit budgets and deadlines: shot counts are
// validated with backend.CheckShots plus a server-level cap, every job
// runs under a context deadline, and heavy work is admitted through a
// bounded priority gate so a burst cannot oversubscribe the orchestrate
// worker pools underneath. Failures use one stable JSON error shape
// (api.Error) with machine-readable codes.
package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/backend"
	"biasmit/internal/chaos"
	"biasmit/internal/device"
	"biasmit/internal/jobs"
	"biasmit/internal/obs"
	"biasmit/internal/overload"
	"biasmit/internal/persist"
	"biasmit/internal/profilestore"
	"biasmit/internal/rescache"
	"biasmit/internal/resilient"
)

// Config tunes a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// Workers bounds each job's internal parallelism (core.Machine
	// Workers; zero selects all CPUs).
	Workers int
	// MaxJobs bounds how many mitigation/characterization requests run
	// concurrently; further requests queue for the admission gate,
	// highest priority class first (see QueueTimeout). Default 2.
	MaxJobs int
	// DefaultTimeout is the per-request deadline when the request does
	// not set one (default 60s); MaxTimeout caps what a request may ask
	// for (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxShots is the per-request trial-budget cap (default 1<<20,
	// never above backend.MaxShots).
	MaxShots int
	// ProfileShots is the characterization budget per basis state
	// (brute) or per window (awct) or total (esct); default 2048.
	ProfileShots int
	// Persist, when non-nil, makes the profile store durable: every
	// published profile is journaled through it (WAL + snapshots) and
	// its recovered profiles are loaded into the store at construction,
	// so a restarted daemon serves warm. The caller owns the log's
	// lifecycle (compaction loop, Close).
	Persist *profilestore.DiskLog
	// Seed is the base seed for characterization runs (default 1); the
	// per-key seed is derived from it so profiles are reproducible.
	Seed int64
	// Chaos injects faults into every backend execution on every machine
	// (biasmitd's -chaos-* flags, and tests); the zero Plan disables
	// injection.
	Chaos chaos.Plan
	// RetryAttempts bounds how many times each backend run is attempted
	// before its transient error surfaces (default 4; 1 disables
	// retries). It is the only retry limit a run has: a failed request
	// or job is not run again.
	RetryAttempts int
	// BreakerThreshold is how many consecutive failed runs open a
	// machine's circuit breaker (default 5); BreakerCooldown is how long
	// an open breaker rejects work before probing again (default 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// JobsLog, when non-nil, makes the async job queue durable: every job
	// state transition is journaled through it (WAL + snapshots) and the
	// jobs it recovered are re-queued or surfaced as history at
	// construction. The caller owns the log's lifecycle (Close after
	// DrainJobs).
	JobsLog *jobs.Log
	// JobWorkers bounds concurrently executing async jobs (default 2).
	JobWorkers int
	// JobQuota bounds each tenant's queued+running async jobs;
	// submissions past it are rejected with 429 quota_exceeded. Zero
	// means unbounded.
	JobQuota int
	// QueueTimeout selects what the admission gate does with a request
	// that finds every MaxJobs slot taken. Zero (the default) queues it
	// until a slot frees or its deadline ends. Positive sheds it with a
	// typed 503 overloaded + Retry-After once it has queued this long,
	// CoDel style, or at once when the queue already holds
	// maxAdmissionQueue requests and none of them ranks below it. An
	// async job execution is never shed: it waits, admitted after every
	// interactive request, until a slot frees or its deadline ends.
	QueueTimeout time.Duration
	// QueueHighWater, when positive, flips /healthz to 503 unavailable
	// once more than this many async jobs sit queued — the backpressure
	// signal load balancers act on.
	QueueHighWater int
	// ResultCache enables the content-addressed mitigation result
	// cache (internal/rescache): responses to identical requests are
	// replayed byte-for-byte, identical in-flight requests coalesce
	// onto one pipeline execution, and entries keyed to an RBMS
	// profile are invalidated the moment that profile's generation
	// moves. Off by default in the zero Config; cmd/biasmitd enables
	// it unless -result-cache=false.
	ResultCache bool
	// Logger is the server's structured logger: every completed request
	// and job execution emits one JSON line through it, keyed by trace
	// ID. Defaults to info-level JSON on stderr.
	Logger *obs.Logger
	// SlowRequest is the elapsed time past which a finished trace is
	// retained as a slow-request exemplar on /metrics (default 500ms).
	SlowRequest time.Duration
	// Now overrides the clock, for tests.
	Now func() time.Time
	// sleep overrides the retry backoff sleep, for tests.
	sleep func(ctx context.Context, d time.Duration) error
	// wrapRun, for tests, wraps the raw backend runner before chaos and
	// the retrying executor are layered on.
	wrapRun func(backend.Runner) backend.Runner
}

// machineNames lists the machines the server runs on, the only ones
// device.ByName resolves: the paper's three, which /healthz and the
// breaker metrics always report on.
var machineNames = func() []string {
	var names []string
	for _, dev := range device.AllMachines() {
		names = append(names, dev.Name)
	}
	return names
}()

// maxAdmissionQueue bounds the interactive admission queue when the
// gate sheds (Config.QueueTimeout > 0); an arrival past it evicts a
// lower-class waiter or is shed itself. Job executions do not count:
// JobWorkers bounds them.
const maxAdmissionQueue = 64

func (c Config) withDefaults() Config {
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxShots <= 0 || c.MaxShots > backend.MaxShots {
		c.MaxShots = 1 << 20
	}
	if c.ProfileShots <= 0 {
		c.ProfileShots = 2048
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 4
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logger == nil {
		c.Logger = obs.NewLogger(os.Stderr, obs.LevelInfo)
	}
	return c
}

// Server is the biasmitd request handler. Construct with New; the
// handler is safe for concurrent use.
type Server struct {
	cfg   Config
	store *profilestore.Store
	reg   *metricsRegistry
	mux   *http.ServeMux
	start time.Time

	// Per-machine resilient execution: every backend run (mitigation
	// and characterization alike) goes through the machine's retrying
	// executor and circuit breaker; the counters are shared so /metrics
	// shows one fleet-wide view.
	runMetrics *resilient.Metrics
	execs      map[string]*machineExec

	// Async job queue (POST /v1/jobs): durable when cfg.JobsLog is set,
	// drained into the same mitigate/characterize paths the synchronous
	// endpoints use. jobTypes gives each job type its body, validation
	// and run.
	jobq     *jobs.Queue
	jobsched *jobs.Scheduler
	jobTypes map[string]jobType

	// traces aggregates finished request/job traces: the /debug/traces
	// ring, the slow-request exemplars, and the per-stage histograms.
	traces *obs.Recorder

	// rescache, when non-nil, is the content-addressed result cache
	// the sync and async mitigate paths share: byte-replay of
	// identical requests, singleflight coalescing of identical
	// in-flight ones, profile-generation invalidation.
	rescache *rescache.Cache

	// limiter is the admission gate for heavy endpoints (MaxJobs
	// slots, priority queues).
	limiter *overload.Limiter
}

// New builds a server and its profile store.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		reg:        newMetricsRegistry(),
		mux:        http.NewServeMux(),
		start:      cfg.Now(),
		runMetrics: &resilient.Metrics{},
		traces:     obs.NewRecorder(0, cfg.SlowRequest), // keeps the last 256 traces
	}
	s.execs = newMachineExecs(cfg, s.runMetrics)
	if cfg.ResultCache {
		s.rescache = rescache.New()
	}
	gate := overload.LimiterConfig{Limit: cfg.MaxJobs}
	if cfg.QueueTimeout > 0 {
		gate.QueueTimeout = cfg.QueueTimeout
		gate.MaxQueue = maxAdmissionQueue
	}
	s.limiter = overload.NewLimiter(gate)
	s.store = profilestore.New(s.characterizeKey, profilestore.Options{
		Journal: cfg.Persist,
		Now:     cfg.Now,
	})
	if cfg.Persist != nil {
		// Warm restart: profiles recovered from snapshot+WAL serve
		// immediately, with their original LearnedAt.
		s.store.Load(profilestore.RecoveredProfiles(cfg.Persist))
	}
	s.jobq = jobs.NewQueue(jobs.Options{
		Log:          cfg.JobsLog,
		Now:          cfg.Now,
		MaxPerTenant: cfg.JobQuota,
	})
	s.jobTypes = map[string]jobType{
		api.JobTypeMitigate: newJobType(func(r *api.JobSubmitRequest) *api.MitigateRequest { return r.Mitigate },
			s.validateMitigate, s.mitigate),
		api.JobTypeCharacterize: newJobType(func(r *api.JobSubmitRequest) *api.CharacterizeRequest { return r.Characterize },
			s.validateCharacterize, s.characterize),
	}
	s.jobsched = jobs.NewScheduler(s.jobq, jobs.SchedulerOptions{
		Exec:    s.execJob,
		Workers: cfg.JobWorkers,
		Now:     cfg.Now,
	})
	s.jobsched.Start()
	for _, rt := range s.routes() {
		s.mux.HandleFunc(rt.pattern, s.instrument(rt))
	}
	return s
}

// route is one mux registration: the pattern doubles as the metrics and
// trace label. A route with a method answers any other with 405; one
// without checks the method itself.
type route struct {
	pattern string
	method  string
	handler http.HandlerFunc
}

// routes is the server's canonical route table. The mux is built from
// it, and the API-reference test walks it to assert docs/API.md
// documents every pattern registered here.
func (s *Server) routes() []route {
	return []route{
		{"/v1/mitigate", http.MethodPost, serve(s, overload.ClassMitigate, s.mitigate)},
		// Characterization is the most valuable class under overload: a
		// learned profile amortizes across every later mitigation, so it
		// is shed last.
		{"/v1/characterize", http.MethodPost, serve(s, overload.ClassCharacterize, s.characterize)},
		{"/v1/profiles", http.MethodGet, s.handleProfiles},
		{"/v1/jobs", "", s.handleJobs},
		{"/v1/jobs/", "", s.handleJobByID},
		{"/healthz", http.MethodGet, s.handleHealthz},
		{"/metrics", http.MethodGet, s.handleMetrics},
		{"/debug/traces", http.MethodGet, s.handleDebugTraces},
		{"/", "", s.handleNotFound},
	}
}

// Handler returns the HTTP handler serving the full API surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the profile store, into which the daemon imports
// -preload profiles at boot.
func (s *Server) Store() *profilestore.Store { return s.store }

// DrainJobs gracefully stops the async job scheduler: dispatch halts,
// running jobs get until ctx ends to finish, stragglers are cancelled
// and journaled back to queued, and the job journal is checkpointed.
// Call before closing the jobs log.
func (s *Server) DrainJobs(ctx context.Context) jobs.DrainResult {
	return s.jobsched.Drain(ctx)
}

// JobStats snapshots the async job queue's gauges and counters (the
// daemon logs recovery from it at boot).
func (s *Server) JobStats() jobs.Stats { return s.jobq.Stats() }

// statusRecorder captures the status code a handler wrote, and
// whether it wrote anything.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// instrument wraps a route's handler with the route's method check and
// the request's whole observability envelope: the in-flight gauge, the
// request counter, and the latency histogram for the route, plus the
// trace lifecycle — mint (or adopt a valid inbound X-Trace-Id), echo
// the ID as a response header, thread the trace through the request
// context, and on completion fold it into the trace ring and emit the
// structured request log line.
//
// A panicking handler still ends its request: it is answered 500
// internal when nothing was written yet, and counted, traced and
// logged with its stack. A response the panic cut short, or one the
// handler aborted with http.ErrAbortHandler, is aborted after the
// bookkeeping, so the client cannot take it for a whole one.
func (s *Server) instrument(rt route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := obs.NewTrace(r.Header.Get(api.TraceHeader), s.cfg.Now)
		w.Header().Set(api.TraceHeader, tr.ID())
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
		s.reg.begin(rt.pattern)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			p := recover()
			abort := p == http.ErrAbortHandler || (p != nil && rec.wrote)
			switch {
			case abort:
				rec.code = http.StatusInternalServerError
			case p != nil:
				writeError(rec, r, apiErrorf(http.StatusInternalServerError, api.CodeInternal, "handler panicked: %v", p))
			}
			if p != nil && p != http.ErrAbortHandler {
				s.cfg.Logger.Error("handler panicked", "trace_id", tr.ID(), "route", rt.pattern,
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			}
			s.reg.end(rt.pattern, rec.code, time.Since(start).Seconds())
			td := tr.Finish(rt.pattern, rec.code)
			s.traces.Record(td)
			s.logTrace("request", td)
			if abort {
				panic(http.ErrAbortHandler)
			}
		}()
		if rt.method != "" && r.Method != rt.method {
			writeError(rec, r, apiErrorf(http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
				"%s requires %s", r.URL.Path, rt.method))
		} else {
			rt.handler(rec, r)
		}
	}
}

// logTrace emits the one structured line every completed request or job
// gets: trace ID, route, status, elapsed time, and the per-stage span
// breakdown. Scrape and debug endpoints log at debug so an idle
// daemon's log is not all Prometheus polls; API traffic logs at info,
// client errors at warn, server errors at error.
func (s *Server) logTrace(msg string, td obs.TraceData) {
	lg := s.cfg.Logger
	lvl := obs.LevelDebug
	if strings.HasPrefix(td.Route, "/v1/") || strings.HasPrefix(td.Route, "job:") {
		lvl = obs.LevelInfo
	}
	switch {
	case td.Status >= 500:
		lvl = obs.LevelError
	case td.Status >= 400:
		lvl = obs.LevelWarn
	}
	if !lg.Enabled(lvl) {
		return
	}
	kv := []any{"trace_id", td.TraceID, "route", td.Route, "status", td.Status, "elapsed_ms", td.ElapsedMS}
	if len(td.Spans) > 0 {
		kv = append(kv, "spans", td.Spans)
	}
	if len(td.Tags) > 0 {
		kv = append(kv, "tags", td.Tags)
	}
	if len(td.Annotations) > 0 {
		kv = append(kv, "annotations", td.Annotations)
	}
	lg.Log(lvl, msg, kv...)
}

// propagatedDeadline narrows ctx to the X-Request-Deadline header, the
// cross-service budget a caller forwards so work the callee cannot
// finish in time is shed immediately instead of burning a slot. A
// malformed header is a client error; an already-expired budget sheds
// with the typed overload error (503 + Retry-After) before any work
// starts. The returned cancel is non-nil even when no header is set.
func (s *Server) propagatedDeadline(ctx context.Context, r *http.Request) (context.Context, context.CancelFunc, error) {
	dl, err := requestDeadline(r)
	if dl == nil || err != nil {
		return ctx, func() {}, err
	}
	if !s.cfg.Now().Before(*dl) {
		return ctx, func() {}, &overload.Error{
			Reason:     "deadline_budget",
			Class:      overload.ClassFromContext(ctx),
			RetryAfter: time.Second,
		}
	}
	ctx, cancel := context.WithDeadline(ctx, *dl)
	return ctx, cancel, nil
}

// requestDeadline parses the caller's X-Request-Deadline header; nil
// when the request carries none.
func requestDeadline(r *http.Request) (*time.Time, error) {
	h := r.Header.Get(overload.DeadlineHeader)
	if h == "" {
		return nil, nil
	}
	dl, err := overload.ParseDeadline(h)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, api.CodeBadRequest,
			"bad %s header %q: %v", overload.DeadlineHeader, h, err)
	}
	return &dl, nil
}

// serve is the handler of the compute routes: decode the body, narrow
// the request context to the route's admission class and the caller's
// propagated deadline, run, and write the response.
func serve[Req, Resp any](s *Server, class overload.Class, run func(context.Context, *Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, r, err)
			return
		}
		ctx := overload.WithClass(r.Context(), class)
		ctx, cancel, err := s.propagatedDeadline(ctx, r)
		if err != nil {
			writeError(w, r, err)
			return
		}
		defer cancel()
		resp, err := run(ctx, &req)
		if err != nil {
			writeError(w, r, err)
			return
		}
		writeJSON(w, r, http.StatusOK, resp)
	}
}

// profileInfo renders a cached profile for the wire.
func (s *Server) profileInfo(p *profilestore.Profile) api.ProfileInfo {
	info := api.ProfileInfo{
		Machine:   p.Key.Machine,
		Width:     p.Key.Width,
		Method:    p.Key.Method,
		Layout:    p.Layout,
		Shots:     p.Shots,
		LearnedAt: p.LearnedAt.UTC(),
		AgeMS:     s.store.Age(p).Milliseconds(),
		Strongest: p.RBMS.StrongestState().String(),
	}
	if corr, err := p.RBMS.HammingCorrelation(); err == nil {
		info.HammingCorrelation = &corr
	}
	return info
}

// handleProfiles lists cached profiles in stable key order
// (machine/width/method), one page at a time: ?cursor= is the key of
// the last profile of the previous page, ?limit= bounds the page (the
// documented default cap applies either way), and next_cursor in the
// envelope links the pages.
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	limit, cursor, aerr := parsePage(r.URL.Query())
	if aerr != nil {
		writeError(w, r, aerr)
		return
	}
	profs := s.store.Profiles()
	sort.Slice(profs, func(i, j int) bool { return profs[i].Key.String() < profs[j].Key.String() })
	i := sort.Search(len(profs), func(i int) bool { return profs[i].Key.String() > cursor })
	profs = profs[i:]
	resp := &api.ProfilesResponse{Profiles: []api.ProfileInfo{}}
	if len(profs) > limit {
		resp.NextCursor = profs[limit-1].Key.String()
		profs = profs[:limit]
	}
	for _, p := range profs {
		resp.Profiles = append(resp.Profiles, s.profileInfo(p))
	}
	writeJSON(w, r, http.StatusOK, resp)
}

// handleHealthz reports honest readiness rather than bare liveness:
// each machine's breaker state, the cached profile count and the job
// queue's depth. The status is "ok" with every breaker closed,
// "degraded" while any breaker is open/half-open, and "unavailable"
// (with a 503, so load balancers stop routing here) only when every
// machine's breaker is open.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := &api.HealthResponse{
		Status:         "ok",
		UptimeMS:       time.Since(s.start).Milliseconds(),
		ProfilesCached: s.store.StatsSnapshot().Entries,
	}
	open := 0
	for _, name := range machineNames {
		br := s.execs[name].breaker
		hm := api.HealthMachine{Machine: name, Breaker: br.State()}
		if hm.Breaker == resilient.StateOpen {
			open++
			hm.RetryAfterMS = br.RetryAfter().Milliseconds()
		}
		if hm.Breaker != resilient.StateClosed {
			resp.Status = "degraded"
		}
		resp.Machines = append(resp.Machines, hm)
	}
	jst := s.jobq.Stats()
	resp.JobsQueued = jst.Queued
	resp.JobsRunning = jst.Running
	resp.OldestQueuedMS = jst.OldestQueued.Milliseconds()
	status := http.StatusOK
	if len(resp.Machines) > 0 && open == len(resp.Machines) {
		resp.Status = "unavailable"
		status = http.StatusServiceUnavailable
	}
	// Backlog past the high-water mark means new work will sit longer
	// than it is worth: tell the balancer to stop routing here until the
	// queue drains below the mark.
	if hw := s.cfg.QueueHighWater; hw > 0 && jst.Queued > hw {
		resp.Status = "unavailable"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, r, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var profiles, jobsJournal *persist.JournalStats
	if s.cfg.Persist != nil {
		st := s.cfg.Persist.Stats()
		profiles = &st
	}
	if s.cfg.JobsLog != nil {
		st := s.cfg.JobsLog.Stats()
		jobsJournal = &st
	}
	s.reg.write(w, s.store.StatsSnapshot(), s.runMetrics.Snapshot(), s.execs, profiles,
		s.jobq.Stats(), jobsJournal)
	s.writeOverloadMetrics(w)
	s.writeResultCacheMetrics(w)
	s.writeTraceMetrics(w)
}

// handleDebugTraces serves the recent-trace ring: the last completed
// requests and job executions, newest first, each with its per-stage
// span breakdown. ?slow=1 narrows the listing to the retained
// slow-request exemplars; ?limit= bounds the page.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, r, apiErrorf(http.StatusBadRequest, api.CodeBadRequest,
				"bad limit %q (want a positive integer)", v))
			return
		}
		limit = n
	}
	var list []obs.TraceData
	if r.URL.Query().Get("slow") == "1" {
		list = s.traces.Slow()
		if limit > 0 && len(list) > limit {
			list = list[:limit]
		}
	} else {
		list = s.traces.Last(limit)
	}
	resp := &api.TracesResponse{
		Traces:          make([]api.TraceEntry, 0, len(list)),
		SlowThresholdMS: s.traces.SlowThreshold().Milliseconds(),
	}
	for _, td := range list {
		resp.Traces = append(resp.Traces, toTraceEntry(td))
	}
	writeJSON(w, r, http.StatusOK, resp)
}

// toTraceEntry converts a recorded trace to its wire shape.
func toTraceEntry(td obs.TraceData) api.TraceEntry {
	e := api.TraceEntry{
		TraceID:     td.TraceID,
		Route:       td.Route,
		Status:      td.Status,
		Start:       td.Start.UTC(),
		ElapsedMS:   td.ElapsedMS,
		Annotations: td.Annotations,
		Tags:        td.Tags,
	}
	for _, sp := range td.Spans {
		e.Spans = append(e.Spans, api.TraceSpan{
			Name:       sp.Name,
			StartMS:    sp.StartMS,
			DurationMS: sp.DurationMS,
			Tags:       sp.Tags,
		})
	}
	return e
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, r, apiErrorf(http.StatusNotFound, api.CodeNotFound, "no route %s %s", r.Method, r.URL.Path))
}
