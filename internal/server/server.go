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
//	GET  /v1/profiles     list cached profiles and their freshness
//	GET  /healthz         liveness probe
//	GET  /metrics         Prometheus text metrics
//
// Requests carry explicit budgets and deadlines: shot counts are
// validated with backend.CheckShots plus a server-level cap, every job
// runs under a context deadline, and heavy work is admitted through a
// bounded job gate so a burst cannot oversubscribe the orchestrate
// worker pools underneath. Failures use one stable JSON error shape
// (APIError) with machine-readable codes.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/chaos"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/experiments"
	"biasmit/internal/jobs"
	"biasmit/internal/kernels"
	"biasmit/internal/metrics"
	"biasmit/internal/obs"
	"biasmit/internal/orchestrate"
	"biasmit/internal/overload"
	"biasmit/internal/persist"
	"biasmit/internal/profilestore"
	"biasmit/internal/qasm"
	"biasmit/internal/rescache"
	"biasmit/internal/resilient"
)

// Config tunes a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// Machines resolves a machine name to its device model; defaults to
	// device.ByName (the paper's three machines).
	Machines func(name string) (*device.Device, bool)
	// Workers bounds each job's internal parallelism (core.Machine
	// Workers; zero selects all CPUs).
	Workers int
	// MaxJobs bounds how many mitigation/characterization jobs run
	// concurrently; further requests queue until a slot frees or their
	// deadline ends. Default 2.
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
	// ProfileTTL is how long cached profiles stay fresh (default
	// profilestore.DefaultTTL).
	ProfileTTL time.Duration
	// Persist, when non-nil, makes the profile store durable: every
	// insert/refresh/eviction is journaled through it (WAL + snapshots)
	// and its recovered profiles are loaded into the store at
	// construction, so a restarted daemon serves warm. The caller owns
	// the log's lifecycle (compaction loop, Close).
	Persist *profilestore.DiskLog
	// MaxProfiles bounds the profile cache; past it the least recently
	// used profile is evicted (and the eviction journaled). Zero means
	// unbounded.
	MaxProfiles int
	// Seed is the base seed for characterization runs (default 1); the
	// per-key seed is derived from it so profiles are reproducible.
	Seed int64
	// Chaos injects faults into every backend execution on every machine
	// (tests and the CI chaos job); the zero Plan disables injection.
	Chaos chaos.Plan
	// RetryAttempts bounds how many times each backend run is attempted
	// before its transient error surfaces (default 4; 1 disables
	// retries).
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
	// AutoInflight replaces the static MaxJobs admission gate with the
	// adaptive concurrency limiter (internal/overload): the in-flight
	// ceiling tracks observed latency against the min-latency baseline,
	// and excess load is shed with a typed 503 instead of queueing
	// unboundedly. MaxJobs seeds the limiter's initial limit.
	AutoInflight bool
	// QueueTimeout bounds how long an admission-queued request may wait
	// before being shed, CoDel style (default 100ms). Only meaningful
	// with AutoInflight.
	QueueTimeout time.Duration
	// Brownout enables policy degradation under sustained admission
	// pressure: AIM requests serve SIM, then baseline, stepping back up
	// as pressure clears. The served tier is stamped on every mitigate
	// response.
	Brownout bool
	// BrownoutDwellDown/Up are how long pressure (calm) must persist
	// before stepping a tier down (up); defaults 2s / 5s.
	BrownoutDwellDown time.Duration
	BrownoutDwellUp   time.Duration
	// RetryBudget, when positive, caps retry traffic (backend re-runs)
	// to this fraction of fresh admitted work via a shared token bucket
	// — the standard defence against retry storms. 0.1 means retries may
	// add at most ~10% load. Zero disables the budget.
	RetryBudget float64
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

// machineNames lists the machines /healthz and the breaker metrics
// always report on: the paper's three.
var machineNames = func() []string {
	var names []string
	for _, dev := range device.AllMachines() {
		names = append(names, dev.Name)
	}
	return names
}()

func (c Config) withDefaults() Config {
	if c.Machines == nil {
		c.Machines = device.ByName
	}
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
	jobs  chan struct{} // admission gate for heavy endpoints
	mux   *http.ServeMux
	start time.Time

	// Per-machine resilient execution: every backend run (mitigation
	// and characterization alike) goes through the machine's retrying
	// executor and circuit breaker; the counters are shared so /metrics
	// shows one fleet-wide view.
	runMetrics *resilient.Metrics
	execMu     sync.Mutex
	execs      map[string]*machineExec

	// Async job queue (POST /v1/jobs): durable when cfg.JobsLog is set,
	// drained into the same mitigate/characterize paths the synchronous
	// endpoints use.
	jobq     *jobs.Queue
	jobsched *jobs.Scheduler

	// traces aggregates finished request/job traces: the /debug/traces
	// ring, the slow-request exemplars, and the per-stage histograms.
	traces *obs.Recorder

	// rescache, when non-nil, is the content-addressed result cache
	// the sync and async mitigate paths share: byte-replay of
	// identical requests, singleflight coalescing of identical
	// in-flight ones, profile-generation invalidation.
	rescache *rescache.Cache

	// Overload control (all optional; nil disables each):
	// limiter replaces the static admission gate with adaptive
	// concurrency + priority shedding, budget caps retry traffic,
	// brown steps AIM down to SIM/baseline under sustained pressure,
	// watchdog cancels-and-requeues wedged async jobs.
	limiter  *overload.Limiter
	budget   *overload.Budget
	brown    *overload.Brownout
	watchdog *overload.Watchdog
}

// machineExec is one machine's execution path plus its breaker.
type machineExec struct {
	breaker *resilient.Breaker
	run     backend.Runner
}

// New builds a server and its profile store.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		reg:        newMetricsRegistry(),
		jobs:       make(chan struct{}, cfg.MaxJobs),
		mux:        http.NewServeMux(),
		start:      cfg.Now(),
		runMetrics: &resilient.Metrics{},
		execs:      make(map[string]*machineExec),
		traces:     obs.NewRecorder(0, cfg.SlowRequest), // keeps the last 256 traces
	}
	if cfg.ResultCache {
		s.rescache = rescache.New(rescache.Options{}) // 1024 entries
	}
	if cfg.AutoInflight {
		s.limiter = overload.NewLimiter(overload.LimiterConfig{
			Initial:      float64(cfg.MaxJobs),
			QueueTimeout: cfg.QueueTimeout,
			Now:          cfg.Now,
		})
	}
	if cfg.RetryBudget > 0 {
		s.budget = overload.NewBudget(cfg.RetryBudget, 0)
	}
	if cfg.Brownout {
		s.brown = overload.NewBrownout(cfg.BrownoutDwellDown, cfg.BrownoutDwellUp, cfg.Now)
	}
	// The watchdog sweeps every second. Its stall threshold is derived,
	// not set: every execution is bounded by MaxTimeout, so an async job
	// still running at twice that ignores its context, and gets a
	// goroutine dump logged, its context cancelled, and a requeue.
	s.watchdog = overload.NewWatchdog(0, 2*cfg.MaxTimeout, cfg.Logger.Logf)
	s.watchdog.SetNow(cfg.Now)
	s.watchdog.Start()
	opts := profilestore.Options{
		TTL:            cfg.ProfileTTL,
		RefreshWorkers: 1, // one characterization at a time in the background
		MaxProfiles:    cfg.MaxProfiles,
		Journal:        cfg.Persist,
		Now:            cfg.Now,
	}
	s.store = profilestore.New(s.characterizeKey, opts)
	if cfg.Persist != nil {
		// Warm restart: profiles recovered from snapshot+WAL serve
		// immediately, with their original LearnedAt (staleness carries
		// across the restart — an old profile on disk is still old).
		s.store.Load(profilestore.RecoveredProfiles(cfg.Persist))
	}
	q, err := jobs.NewQueue(jobs.Options{
		Log:          cfg.JobsLog,
		Now:          cfg.Now,
		MaxPerTenant: cfg.JobQuota,
	})
	if err != nil {
		// Recovery absorbs journal faults into its error counters, so this
		// path is defensive: serve memory-only rather than boot dark.
		q, _ = jobs.NewQueue(jobs.Options{Now: cfg.Now, MaxPerTenant: cfg.JobQuota})
	}
	s.jobq = q
	s.jobsched = jobs.NewScheduler(q, jobs.SchedulerOptions{
		Exec:     s.execJob,
		Workers:  cfg.JobWorkers,
		Watchdog: s.watchdog,
		Now:      cfg.Now,
	})
	s.jobsched.Start()
	for _, rt := range s.routes() {
		s.mux.HandleFunc(rt.pattern, s.instrument(rt.pattern, rt.handler))
	}
	return s
}

// route is one mux registration: the pattern doubles as the metrics and
// trace label.
type route struct {
	pattern string
	handler http.HandlerFunc
}

// routes is the server's canonical route table. The mux is built from
// it, and the API-reference test walks it to assert docs/API.md
// documents every pattern registered here.
func (s *Server) routes() []route {
	return []route{
		{"/v1/mitigate", s.handleMitigate},
		{"/v1/characterize", s.handleCharacterize},
		{"/v1/profiles", s.handleProfiles},
		{"/v1/jobs", s.handleJobs},
		{"/v1/jobs/", s.handleJobByID},
		{"/healthz", s.handleHealthz},
		{"/metrics", s.handleMetrics},
		{"/debug/traces", s.handleDebugTraces},
		{"/", s.handleNotFound},
	}
}

// Handler returns the HTTP handler serving the full API surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the profile store so the daemon can run its background
// refresh loop (Store().RefreshLoop).
func (s *Server) Store() *profilestore.Store { return s.store }

// DrainJobs gracefully stops the async job scheduler: dispatch halts,
// running jobs get until ctx ends to finish, stragglers are cancelled
// and journaled back to queued, and the job journal is checkpointed.
// Call before closing the jobs log. The watchdog stops with the
// scheduler it was watching.
func (s *Server) DrainJobs(ctx context.Context) jobs.DrainResult {
	res := s.jobsched.Drain(ctx)
	s.watchdog.Stop()
	return res
}

// JobStats snapshots the async job queue's gauges and counters (the
// daemon logs recovery from it at boot).
func (s *Server) JobStats() jobs.Stats { return s.jobq.Stats() }

// statusRecorder captures the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the request's whole observability
// envelope: the in-flight gauge, the request counter, and the latency
// histogram for route, plus the trace lifecycle — mint (or adopt a
// valid inbound X-Trace-Id), echo the ID as a response header, thread
// the trace through the request context, and on completion fold it
// into the trace ring and emit the structured request log line.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := obs.NewTrace(r.Header.Get(api.TraceHeader), s.cfg.Now)
		w.Header().Set(api.TraceHeader, tr.ID())
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
		s.reg.begin(route)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.reg.end(route, rec.code, time.Since(start).Seconds())
		td := tr.Finish(route, rec.code)
		s.traces.Record(td)
		s.logTrace("request", td)
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
	switch lvl {
	case obs.LevelDebug:
		lg.Debug(msg, kv...)
	case obs.LevelInfo:
		lg.Info(msg, kv...)
	case obs.LevelWarn:
		lg.Warn(msg, kv...)
	default:
		lg.Error(msg, kv...)
	}
}

// exec returns the machine's resilient execution path, building its
// breaker and retrying executor on first use. Machines share the chaos
// plan, retry policy, and metrics but each gets its own breaker, so one
// persistently failing machine sheds load without darkening the rest.
func (s *Server) exec(dev *device.Device) *machineExec {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	if e, ok := s.execs[dev.Name]; ok {
		return e
	}
	br := resilient.NewBreaker(resilient.BreakerOptions{
		Threshold: s.cfg.BreakerThreshold,
		Cooldown:  s.cfg.BreakerCooldown,
		Now:       s.cfg.Now,
	})
	run := backend.RunContext
	if s.cfg.wrapRun != nil {
		run = s.cfg.wrapRun(run)
	}
	// Backoff starts at resilient's 50ms default, and runs are never
	// sliced, so served counts match the raw backend's byte for byte.
	pol := resilient.Policy{
		MaxAttempts: s.cfg.RetryAttempts,
		Seed:        s.cfg.Seed,
		Breaker:     br,
		Machine:     dev.Name,
		Sleep:       s.cfg.sleep,
		Metrics:     s.runMetrics,
	}
	if s.budget != nil {
		// The shared retry budget has the last word before every backend
		// retry: when retries would exceed their fraction of fresh
		// traffic, the transient error surfaces instead of amplifying an
		// outage.
		pol.RetryAllow = s.budget.Allow
	}
	ex := resilient.New(s.cfg.Chaos.Wrap(run), pol)
	e := &machineExec{breaker: br, run: ex.Run}
	s.execs[dev.Name] = e
	return e
}

// breakerFor reports a machine's breaker state without forcing the
// executor into existence: a machine nobody has used yet is closed.
func (s *Server) breakerFor(name string) *resilient.Breaker {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	if e, ok := s.execs[name]; ok {
		return e.breaker
	}
	return nil
}

// deadline derives the job context: the request's own timeout if set,
// else the server default, never above the server maximum.
func (s *Server) deadline(ctx context.Context, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(ctx, d)
}

// admit reserves an execution slot for heavy work. With AutoInflight
// the adaptive limiter decides: requests past the latency-derived
// ceiling queue briefly (CoDel-bounded) and then shed, lowest priority
// class first, with a typed overload error. Otherwise the static
// bounded gate waits until a slot frees or ctx ends. Every admission
// outcome feeds the brownout controller, and every fresh admission
// funds the shared retry budget.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	if s.limiter != nil {
		release, err = s.limiter.Acquire(ctx, overload.ClassFromContext(ctx))
		if err != nil {
			var oe *overload.Error
			if errors.As(err, &oe) {
				s.brown.Observe(true)
			}
			return nil, err
		}
		// A success only reads as calm when nobody is left waiting:
		// during a storm the limiter still admits at capacity, and that
		// goodput must not reset the brownout's pressure clock.
		if s.limiter.Stats().Queued == 0 {
			s.brown.Observe(false)
		}
		s.budget.OnRequest()
		return release, nil
	}
	select {
	case s.jobs <- struct{}{}:
		s.brown.Observe(false)
		s.budget.OnRequest()
		return func() { <-s.jobs }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// propagatedDeadline narrows ctx to the X-Request-Deadline header, the
// cross-service budget a caller forwards so work the callee cannot
// finish in time is shed immediately instead of burning a slot. A
// malformed header is a client error; an already-expired budget sheds
// with the typed overload error (503 + Retry-After) before any work
// starts. The returned cancel is non-nil even when no header is set.
func (s *Server) propagatedDeadline(ctx context.Context, r *http.Request) (context.Context, context.CancelFunc, error) {
	h := r.Header.Get(overload.DeadlineHeader)
	if h == "" {
		return ctx, func() {}, nil
	}
	dl, err := overload.ParseDeadline(h)
	if err != nil {
		return ctx, func() {}, apiErrorf(http.StatusBadRequest, CodeBadRequest,
			"bad %s header %q: %v", overload.DeadlineHeader, h, err)
	}
	if !s.cfg.Now().Before(dl) {
		return ctx, func() {}, &overload.Error{
			Reason:     "deadline_budget",
			Class:      overload.ClassFromContext(ctx),
			RetryAfter: time.Second,
		}
	}
	ctx, cancel := context.WithDeadline(ctx, dl)
	return ctx, cancel, nil
}

// checkShots validates a request budget against both the backend limit
// and the server's own per-request cap.
func (s *Server) checkShots(shots int) error {
	if err := backend.CheckShots(shots); err != nil {
		return err
	}
	if shots > s.cfg.MaxShots {
		return apiErrorf(http.StatusBadRequest, CodeBadBudget,
			"shot budget %d exceeds the server's per-request cap %d", shots, s.cfg.MaxShots)
	}
	return nil
}

// resolveBenchmark builds the workload a mitigate request names: an
// inline QASM program, a paper suite benchmark, or one of the bv:<key>,
// prep:<bits>, ghz-<n> shorthands.
func resolveBenchmark(req *MitigateRequest) (kernels.Benchmark, error) {
	if req.QASM != "" {
		if req.Benchmark != "" {
			return kernels.Benchmark{}, apiErrorf(http.StatusBadRequest, CodeBadRequest,
				"benchmark and qasm are mutually exclusive")
		}
		c, err := qasm.Parse(req.QASM)
		if err != nil {
			return kernels.Benchmark{}, apiErrorf(http.StatusBadRequest, CodeBadRequest, "parsing qasm: %v", err)
		}
		return kernels.Benchmark{Name: c.Name, Circuit: c}, nil
	}
	name := req.Benchmark
	switch {
	case name == "":
		return kernels.Benchmark{}, apiErrorf(http.StatusBadRequest, CodeBadRequest,
			"one of benchmark or qasm is required")
	case strings.HasPrefix(name, "bv:"):
		key, err := bitstring.Parse(name[len("bv:"):])
		if err != nil {
			return kernels.Benchmark{}, apiErrorf(http.StatusBadRequest, CodeUnknownBenchmark, "bad bv key: %v", err)
		}
		return kernels.BV(name, key), nil
	case strings.HasPrefix(name, "prep:"):
		b, err := bitstring.Parse(name[len("prep:"):])
		if err != nil {
			return kernels.Benchmark{}, apiErrorf(http.StatusBadRequest, CodeUnknownBenchmark, "bad prep state: %v", err)
		}
		return kernels.Benchmark{Name: name, Circuit: kernels.BasisPrep(b), Correct: []bitstring.Bits{b}}, nil
	case strings.HasPrefix(name, "ghz-"):
		n, err := strconv.Atoi(name[len("ghz-"):])
		if err != nil || n < 1 {
			return kernels.Benchmark{}, apiErrorf(http.StatusBadRequest, CodeUnknownBenchmark, "bad ghz size in %q", name)
		}
		return kernels.Benchmark{Name: name, Circuit: kernels.GHZ(n),
			Correct: []bitstring.Bits{bitstring.Zeros(n), bitstring.Ones(n)}}, nil
	}
	bench, err := experiments.BenchmarkByName(name)
	if err != nil {
		return kernels.Benchmark{}, apiErrorf(http.StatusBadRequest, CodeUnknownBenchmark, "%v", err)
	}
	return bench, nil
}

// resolveProfileMethod applies the paper's size rule when the request
// does not force a method: brute force up to 5 qubits, AWCT beyond.
func resolveProfileMethod(method string, width int) (string, error) {
	switch method {
	case "", "auto":
		if width <= 5 {
			return "brute", nil
		}
		return "awct", nil
	case "brute", "esct", "awct":
		return method, nil
	}
	return "", apiErrorf(http.StatusBadRequest, CodeBadRequest,
		"unknown characterization method %q (want brute, esct, awct, or auto)", method)
}

// keyStream hashes a profile key into a seed stream so characterization
// seeds are decorrelated across keys but reproducible across restarts.
func keyStream(key profilestore.Key) int {
	h := fnv.New32a()
	h.Write([]byte(key.String()))
	return int(h.Sum32() & (1<<31 - 1))
}

// characterizeKey is the profile store's CharacterizeFunc: it learns an
// RBMS profile on the canonical layout (the machine's first Width
// qubits) with the server's characterization budget. Per-benchmark
// layouts can differ from this canonical register; the paper's stability
// result (§6.1) is what makes the shared profile reusable across them.
// The store runs it detached from any one caller, so it carries its own
// bound: MaxTimeout, the longest any waiting request may run.
func (s *Server) characterizeKey(ctx context.Context, key profilestore.Key) (*profilestore.Profile, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.MaxTimeout)
	defer cancel()
	dev, ok := s.cfg.Machines(key.Machine)
	if !ok {
		return nil, apiErrorf(http.StatusNotFound, CodeUnknownMachine, "unknown machine %q", key.Machine)
	}
	if key.Width < 1 || key.Width > dev.NumQubits {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest,
			"register width %d out of range [1,%d] for %s", key.Width, dev.NumQubits, dev.Name)
	}
	layout := make([]int, key.Width)
	for i := range layout {
		layout[i] = i
	}
	m := core.NewMachine(dev)
	m.Workers = s.cfg.Workers
	m.Run = s.exec(dev).run
	prof := &core.Profiler{Machine: m, Layout: layout}
	seed := orchestrate.DeriveSeed(s.cfg.Seed, keyStream(key))
	var (
		rbms core.RBMS
		err  error
	)
	switch key.Method {
	case "brute":
		rbms, err = prof.BruteForceContext(ctx, s.cfg.ProfileShots, seed)
	case "esct":
		rbms, err = prof.ESCTContext(ctx, s.cfg.ProfileShots, seed)
	case "awct":
		rbms, err = prof.AWCTContext(ctx, 4, 2, s.cfg.ProfileShots, seed)
	default:
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "unknown characterization method %q", key.Method)
	}
	if err != nil {
		return nil, err
	}
	return &profilestore.Profile{Key: key, RBMS: rbms, Layout: layout, Shots: s.cfg.ProfileShots}, nil
}

// profileInfo renders a cached profile for the wire.
func (s *Server) profileInfo(p *profilestore.Profile) ProfileInfo {
	info := ProfileInfo{
		Machine:   p.Key.Machine,
		Width:     p.Key.Width,
		Method:    p.Key.Method,
		Layout:    p.Layout,
		Shots:     p.Shots,
		LearnedAt: p.LearnedAt.UTC(),
		AgeMS:     s.store.Age(p).Milliseconds(),
		Stale:     s.store.Stale(p),
		Strongest: p.RBMS.StrongestState().String(),
	}
	if corr, err := p.RBMS.HammingCorrelation(); err == nil {
		info.HammingCorrelation = &corr
	}
	return info
}

// outcomeRows renders the top outcomes of a histogram.
// defaultTopOutcomes is how many outcome rows a response lists when
// the request leaves top unset; the cache key normalizes onto it.
const defaultTopOutcomes = 10

func outcomeRows(counts *dist.Counts, top int) ([]OutcomeCount, int) {
	if top <= 0 {
		top = defaultTopOutcomes
	}
	d := counts.Dist()
	outcomes := counts.Outcomes()
	rows := make([]OutcomeCount, 0, top)
	for _, b := range d.TopK(top) {
		rows = append(rows, OutcomeCount{
			Outcome:     b.String(),
			Count:       counts.Get(b),
			Probability: d.Prob(b),
		})
	}
	return rows, len(outcomes)
}

func (s *Server) handleMitigate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, apiErrorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed, "%s requires POST", r.URL.Path))
		return
	}
	var req MitigateRequest
	sp := obs.StartSpan(r.Context(), "decode")
	err := decodeJSON(w, r, &req)
	sp.End()
	if err != nil {
		writeError(w, r, err)
		return
	}
	ctx := overload.WithClass(r.Context(), overload.ClassMitigate)
	ctx, cancel, err := s.propagatedDeadline(ctx, r)
	if err != nil {
		writeError(w, r, err)
		return
	}
	defer cancel()
	resp, err := s.mitigate(ctx, &req)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusOK, resp)
}

// mitigate validates and executes one mitigation request.
func (s *Server) mitigate(ctx context.Context, req *MitigateRequest) (*MitigateResponse, error) {
	dev, bench, err := s.validateMitigate(req)
	if err != nil {
		return nil, err
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}

	if s.rescache != nil {
		return s.mitigateCached(ctx, req, dev, bench, seed)
	}
	return s.mitigateExec(ctx, req, dev, bench, seed)
}

// validateMitigate runs every check a mitigation request must pass
// before it executes, resolving its machine and benchmark. POST /v1/jobs
// runs the same checks at submission, so a job the synchronous endpoint
// would reject never enters the queue.
func (s *Server) validateMitigate(req *MitigateRequest) (*device.Device, kernels.Benchmark, error) {
	dev, ok := s.cfg.Machines(req.Machine)
	if !ok {
		return nil, kernels.Benchmark{}, apiErrorf(http.StatusNotFound, CodeUnknownMachine, "unknown machine %q", req.Machine)
	}
	bench, err := resolveBenchmark(req)
	if err != nil {
		return nil, kernels.Benchmark{}, err
	}
	if err := s.checkShots(req.Shots); err != nil {
		return nil, kernels.Benchmark{}, err
	}
	switch req.Policy {
	case "baseline", "sim":
	case "aim":
		if _, err := resolveProfileMethod(req.ProfileMethod, bench.Width()); err != nil {
			return nil, kernels.Benchmark{}, err
		}
	default:
		return nil, kernels.Benchmark{}, apiErrorf(http.StatusBadRequest, CodeBadRequest,
			"unknown policy %q (want baseline, sim, or aim)", req.Policy)
	}
	if req.CanaryFraction < 0 || req.CanaryFraction >= 1 {
		return nil, kernels.Benchmark{}, apiErrorf(http.StatusBadRequest, CodeBadRequest, "canary_fraction %v out of [0,1)", req.CanaryFraction)
	}
	if req.K < 0 {
		return nil, kernels.Benchmark{}, apiErrorf(http.StatusBadRequest, CodeBadRequest, "k must be non-negative")
	}
	return dev, bench, nil
}

// mitigateExec runs one validated mitigation request through the full
// pipeline: admission, brownout policy resolution, placement,
// sample, correct. It is the compute function behind the result cache
// — everything nondeterministic about a response (brownout tier,
// degraded profile serving) is visible on the returned struct, which
// mitigateCached inspects to decide cacheability.
func (s *Server) mitigateExec(ctx context.Context, req *MitigateRequest, dev *device.Device, bench kernels.Benchmark, seed int64) (*MitigateResponse, error) {
	ctx, cancel := s.deadline(ctx, req.TimeoutMS)
	defer cancel()
	qsp := obs.StartSpan(ctx, "queue_wait")
	release, err := s.admit(ctx)
	qsp.End()
	if err != nil {
		return nil, err
	}
	defer release()

	m := core.NewMachine(dev)
	m.Workers = s.cfg.Workers
	m.Run = s.exec(dev).run
	job, err := core.NewJob(bench.Circuit, m)
	if err != nil {
		return nil, asBadRequest(err)
	}

	// Under brownout pressure an AIM request is served with a cheaper
	// policy (AIM → SIM → baseline) rather than shed outright: degraded
	// mitigation beats a 503. The response carries both the requested
	// policy and what actually ran, so clients can tell.
	tier := s.brown.Tier() // TierFull when brownout is disabled
	served := overload.Degrade(req.Policy, tier)
	if served != req.Policy {
		obs.Annotate(ctx, "brownout: serving %s for requested %s", served, req.Policy)
	}

	started := time.Now()
	resp := &MitigateResponse{
		Machine:      dev.Name,
		Benchmark:    bench.Name,
		Policy:       req.Policy,
		ServedPolicy: served,
		BrownoutTier: tier,
		Shots:        req.Shots,
		Seed:         seed,
		Layout:       job.Plan.InitialLayout,
		Swaps:        job.Plan.SwapCount,
	}
	var counts *dist.Counts
	switch served {
	case "baseline":
		ssp := obs.StartSpan(ctx, "sample").Tag("policy", served)
		counts, err = job.BaselineContext(ctx, req.Shots, seed)
		ssp.End()
		if err != nil {
			return nil, toAPIError(err)
		}
	case "sim":
		modes := req.Modes
		if modes == 0 {
			modes = 4
		}
		invs, serr := core.StandardInversionStrings(job.Width(), modes)
		if serr != nil {
			return nil, asBadRequest(serr)
		}
		ssp := obs.StartSpan(ctx, "sample").Tag("policy", served)
		res, serr := core.SIMContext(ctx, job, invs, req.Shots, seed)
		ssp.End()
		if serr != nil {
			return nil, asBadRequest(serr)
		}
		counts = res.Merged
	case "aim":
		prof, serveRes, aerr := s.aimProfile(ctx, req, job, dev)
		if aerr != nil {
			return nil, aerr
		}
		cfg := core.AIMConfig{CanaryFraction: req.CanaryFraction, K: req.K}
		ssp := obs.StartSpan(ctx, "sample").Tag("policy", served)
		res, serr := core.AIMContext(ctx, job, prof.RBMS, cfg, req.Shots, seed)
		ssp.End()
		if serr != nil {
			return nil, asBadRequest(serr)
		}
		counts = res.Merged
		resp.Strongest = res.Strongest.String()
		for _, c := range res.Candidates {
			resp.Candidates = append(resp.Candidates, AIMCandidate{
				Output:     c.Output.String(),
				Likelihood: c.Likelihood,
				Inversion:  c.Inversion.String(),
			})
		}
		resp.Profile = &MitigateProfile{
			ProfileInfo: s.profileInfo(prof),
			Cached:      serveRes.Cached,
			Degraded:    serveRes.Degraded,
		}
		resp.Degraded = serveRes.Degraded
	}

	csp := obs.StartSpan(ctx, "correct")
	resp.Outcomes, resp.DistinctOutcomes = outcomeRows(counts, req.Top)
	if len(bench.Correct) > 0 {
		d := counts.Dist()
		resp.Metrics = &PolicyMetrics{
			PST:  metrics.PSTEquiv(d, bench.Correct...),
			IST:  metrics.IST(d, bench.Correct...),
			ROCA: metrics.ROCA(d, bench.Correct...),
		}
		for _, b := range bench.Correct {
			resp.Correct = append(resp.Correct, b.String())
		}
	}
	csp.End()
	resp.ElapsedMS = float64(time.Since(started).Microseconds()) / 1000
	return resp, nil
}

// mitigateCacheKey is the canonical identity a mitigation result is
// content-addressed by: every request field that feeds the
// deterministic pipeline, normalized so requests that differ only in
// spelling (seed 0 vs 1, modes 0 vs 4, an explicit "auto" method)
// share an entry. Fields that cannot change the bytes — timeouts,
// trace IDs, tenant — are deliberately absent. The api version is
// included so a protocol bump can never replay old-shape bytes.
type mitigateCacheKey struct {
	V       string  `json:"v"`
	Machine string  `json:"machine"`
	Bench   string  `json:"bench,omitempty"`
	QASM    string  `json:"qasm,omitempty"`
	Policy  string  `json:"policy"`
	Shots   int     `json:"shots"`
	Seed    int64   `json:"seed"`
	Modes   int     `json:"modes,omitempty"`
	Canary  float64 `json:"canary,omitempty"`
	K       int     `json:"k,omitempty"`
	Method  string  `json:"method,omitempty"`
	Require bool    `json:"require,omitempty"`
	Top     int     `json:"top,omitempty"`
}

// resultCacheKey builds the content hash for a validated request plus
// the profile-store key (and its current generation) an AIM run would
// consume. Baseline and SIM runs touch no profile; their generation is
// pinned to 0 and hasProf is false.
func (s *Server) resultCacheKey(req *MitigateRequest, dev *device.Device, bench kernels.Benchmark, seed int64) (key string, gen uint64, profKey profilestore.Key, hasProf bool, err error) {
	ck := mitigateCacheKey{
		V:       api.Version,
		Machine: dev.Name,
		Bench:   req.Benchmark,
		QASM:    req.QASM,
		Policy:  req.Policy,
		Shots:   req.Shots,
		Seed:    seed,
		Top:     req.Top,
	}
	if ck.Top <= 0 {
		ck.Top = defaultTopOutcomes
	}
	switch req.Policy {
	case "sim":
		ck.Modes = req.Modes
		if ck.Modes == 0 {
			ck.Modes = 4
		}
	case "aim":
		ck.Canary = req.CanaryFraction
		ck.K = req.K
		ck.Require = req.RequireCachedProfile
		method, merr := resolveProfileMethod(req.ProfileMethod, bench.Width())
		if merr != nil {
			return "", 0, profilestore.Key{}, false, merr
		}
		ck.Method = method
		profKey = profilestore.Key{Machine: dev.Name, Width: bench.Width(), Method: method}
		hasProf = true
		gen = s.store.Generation(profKey)
	}
	key, herr := rescache.HashKey(ck)
	if herr != nil {
		return "", 0, profilestore.Key{}, false, herr
	}
	return key, gen, profKey, hasProf, nil
}

// mitigateCached fronts mitigateExec with the result cache: a content
// hash of the canonical request plus the AIM profile's generation
// addresses the stored bytes, identical in-flight requests coalesce
// onto one execution, and responses that are not pure functions of
// the request (brownout-degraded policy, stale-profile serving) fan
// out without being stored. Cached bytes are the marshaled response
// exactly as first computed — ElapsedMS included — so a hit is
// byte-identical to the original; only the per-request envelope and
// the cache_hit/coalesced metadata differ.
func (s *Server) mitigateCached(ctx context.Context, req *MitigateRequest, dev *device.Device, bench kernels.Benchmark, seed int64) (*MitigateResponse, error) {
	csp := obs.StartSpan(ctx, "cache")
	key, gen, profKey, hasProf, err := s.resultCacheKey(req, dev, bench, seed)
	csp.End()
	if err != nil {
		return nil, err
	}

	compute := func(cctx context.Context) (rescache.Computed, error) {
		resp, rerr := s.mitigateExec(cctx, req, dev, bench, seed)
		if rerr != nil {
			return rescache.Computed{}, rerr
		}
		// Only pure-function-of-the-request responses are stored:
		// brownout degradation and stale-profile serving depend on
		// server state at execution time.
		store := resp.ServedPolicy == resp.Policy && !resp.Degraded && resp.BrownoutTier == 0
		storeGen := gen
		if store && hasProf {
			switch cur := s.store.Generation(profKey); {
			case cur == gen:
				// Warm path: the profile the lookup keyed on is the one
				// the run consumed.
			case resp.Profile != nil && !resp.Profile.Cached:
				// The run characterized in-line, publishing the profile
				// itself (cold start: generation 0 → 1). The bytes
				// belong to the new generation; storing them there
				// keeps the entry alive instead of stillborn.
				storeGen = cur
			default:
				// Someone else republished the profile mid-run: the
				// result was computed against the old profile and is
				// stale under either generation.
				store = false
			}
		}
		data, merr := json.Marshal(resp)
		if merr != nil {
			return rescache.Computed{}, merr
		}
		return rescache.Computed{Value: data, Gen: storeGen, Store: store}, nil
	}

	data, outcome, err := s.rescache.Do(ctx, key, gen, compute)
	obs.Annotate(ctx, "result cache: %s", outcome)
	if err != nil {
		return nil, toAPIError(err)
	}
	// Unmarshal a fresh struct per request: the cached bytes are
	// shared, and writeJSON stamps a per-request envelope on whatever
	// struct it is handed.
	resp := new(MitigateResponse)
	if uerr := json.Unmarshal(data, resp); uerr != nil {
		return nil, apiErrorf(http.StatusInternalServerError, CodeInternal, "decoding cached result: %v", uerr)
	}
	switch outcome {
	case rescache.Hit:
		resp.CacheHit = true
	case rescache.Coalesced:
		resp.Coalesced = true
	}
	return resp, nil
}

// aimProfile resolves the RBMS profile an AIM run needs: a fresh cached
// profile when available, otherwise an in-line characterization — unless
// the request insists on cache-only, which maps a miss onto the
// profile_stale error. When re-characterization fails but a stale
// profile survives, the stale one is served with Degraded set: the
// paper's stability result (§6.1) makes an aged profile a better guide
// than none.
func (s *Server) aimProfile(ctx context.Context, req *MitigateRequest, job *core.Job, dev *device.Device) (*profilestore.Profile, profilestore.ServeResult, error) {
	method, err := resolveProfileMethod(req.ProfileMethod, job.Width())
	if err != nil {
		return nil, profilestore.ServeResult{}, err
	}
	key := profilestore.Key{Machine: dev.Name, Width: job.Width(), Method: method}
	sp := obs.StartSpan(ctx, "characterize")
	defer sp.End()
	if req.RequireCachedProfile {
		p, ok := s.store.Get(key)
		if !ok {
			return nil, profilestore.ServeResult{}, apiErrorf(http.StatusConflict, CodeProfileStale,
				"no fresh %s profile cached for %s; POST /v1/characterize first or drop require_cached_profile", method, key)
		}
		sp.Tag("cached", "true")
		return p, profilestore.ServeResult{Cached: true}, nil
	}
	p, res, err := s.store.Serve(ctx, key)
	sp.Tag("cached", strconv.FormatBool(res.Cached))
	if res.Degraded {
		sp.Tag("degraded", "true")
	}
	if err != nil {
		return nil, res, toAPIError(err)
	}
	return p, res, nil
}

func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, apiErrorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed, "%s requires POST", r.URL.Path))
		return
	}
	var req CharacterizeRequest
	sp := obs.StartSpan(r.Context(), "decode")
	err := decodeJSON(w, r, &req)
	sp.End()
	if err != nil {
		writeError(w, r, err)
		return
	}
	// Characterization is the most valuable class under overload: a
	// learned profile amortizes across every later mitigation, so it is
	// shed last.
	ctx := overload.WithClass(r.Context(), overload.ClassCharacterize)
	ctx, cancel, err := s.propagatedDeadline(ctx, r)
	if err != nil {
		writeError(w, r, err)
		return
	}
	defer cancel()
	resp, err := s.characterizeRequest(ctx, &req)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusOK, resp)
}

// characterizeRequest validates and executes one characterization
// request against the shared profile store.
func (s *Server) characterizeRequest(ctx context.Context, req *CharacterizeRequest) (*CharacterizeResponse, error) {
	key, err := s.validateCharacterize(req)
	if err != nil {
		return nil, err
	}

	ctx, cancel := s.deadline(ctx, req.TimeoutMS)
	defer cancel()
	qsp := obs.StartSpan(ctx, "queue_wait")
	release, err := s.admit(ctx)
	qsp.End()
	if err != nil {
		return nil, err
	}
	defer release()

	started := time.Now()
	var (
		p   *profilestore.Profile
		res profilestore.ServeResult
	)
	csp := obs.StartSpan(ctx, "characterize")
	if req.Force {
		p, err = s.store.Characterize(ctx, key)
		csp.Tag("forced", "true")
	} else {
		p, res, err = s.store.Serve(ctx, key)
		csp.Tag("cached", strconv.FormatBool(res.Cached))
	}
	csp.End()
	if err != nil {
		return nil, toAPIError(err)
	}
	resp := &CharacterizeResponse{
		Profile:   s.profileInfo(p),
		Cached:    res.Cached,
		Degraded:  res.Degraded,
		ElapsedMS: float64(time.Since(started).Microseconds()) / 1000,
	}
	if req.IncludeStrengths || p.Key.Width <= 8 {
		resp.Strengths = p.RBMS.Relative().Strength
	}
	return resp, nil
}

// validateCharacterize checks a characterization request and resolves
// the profile it names. POST /v1/jobs runs the same checks at
// submission.
func (s *Server) validateCharacterize(req *CharacterizeRequest) (profilestore.Key, error) {
	dev, ok := s.cfg.Machines(req.Machine)
	if !ok {
		return profilestore.Key{}, apiErrorf(http.StatusNotFound, CodeUnknownMachine, "unknown machine %q", req.Machine)
	}
	width := req.Qubits
	if width == 0 {
		width = dev.NumQubits
		if (req.Method == "" || req.Method == "auto" || req.Method == "brute") && width > 5 {
			width = 5
		}
	}
	if width < 1 || width > dev.NumQubits {
		return profilestore.Key{}, apiErrorf(http.StatusBadRequest, CodeBadRequest,
			"qubits %d out of range [1,%d] for %s", width, dev.NumQubits, dev.Name)
	}
	method, err := resolveProfileMethod(req.Method, width)
	if err != nil {
		return profilestore.Key{}, err
	}
	return profilestore.Key{Machine: dev.Name, Width: width, Method: method}, nil
}

// handleProfiles lists cached profiles in stable key order
// (machine/width/method), one page at a time: ?cursor= is the key of
// the last profile of the previous page, ?limit= bounds the page (the
// documented default cap applies either way), and next_cursor in the
// envelope links the pages.
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, apiErrorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed, "%s requires GET", r.URL.Path))
		return
	}
	limit, cursor, aerr := parsePage(r.URL.Query())
	if aerr != nil {
		writeError(w, r, aerr)
		return
	}
	profs := s.store.Profiles()
	sort.Slice(profs, func(i, j int) bool { return profs[i].Key.String() < profs[j].Key.String() })
	i := sort.Search(len(profs), func(i int) bool { return profs[i].Key.String() > cursor })
	profs = profs[i:]
	resp := &ProfilesResponse{Profiles: []ProfileInfo{}}
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
// each machine's breaker state, plus how much of the profile cache has
// gone stale. The status is "ok" with every breaker closed, "degraded"
// while any breaker is open/half-open or any cached profile is stale,
// and "unavailable" (with a 503, so load balancers stop routing here)
// only when every machine's breaker is open.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, apiErrorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed, "%s requires GET", r.URL.Path))
		return
	}
	resp := &HealthResponse{
		Status:   "ok",
		UptimeMS: time.Since(s.start).Milliseconds(),
	}
	open := 0
	for _, name := range machineNames {
		hm := HealthMachine{Machine: name, Breaker: resilient.StateClosed}
		if br := s.breakerFor(name); br != nil {
			hm.Breaker = br.State()
			if hm.Breaker == resilient.StateOpen {
				open++
				hm.RetryAfterMS = br.RetryAfter().Milliseconds()
			}
		}
		if hm.Breaker != resilient.StateClosed {
			resp.Status = "degraded"
		}
		resp.Machines = append(resp.Machines, hm)
	}
	for _, p := range s.store.Profiles() {
		resp.ProfilesCached++
		if s.store.Stale(p) {
			resp.ProfilesStale++
			resp.Status = "degraded"
		}
	}
	jst := s.jobq.Stats()
	resp.JobsQueued = jst.Queued
	resp.JobsRunning = jst.Running
	resp.OldestQueuedMS = jst.OldestQueued.Milliseconds()
	if resp.BrownoutTier = s.brown.Tier(); resp.BrownoutTier > overload.TierFull {
		resp.Status = "degraded"
	}
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
	if r.Method != http.MethodGet {
		writeError(w, r, apiErrorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed, "%s requires GET", r.URL.Path))
		return
	}
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
	s.reg.write(w, s.store.StatsSnapshot(), s.runMetrics.Snapshot(), s.breakerInfos(), profiles,
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
	if r.Method != http.MethodGet {
		writeError(w, r, apiErrorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed, "%s requires GET", r.URL.Path))
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, r, apiErrorf(http.StatusBadRequest, CodeBadRequest,
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

// breakerInfos snapshots every machine's breaker for /metrics, in a
// stable machine-name order. Machines never executed on report closed
// with zeroed transition counters.
func (s *Server) breakerInfos() []breakerInfo {
	names := append([]string(nil), machineNames...)
	s.execMu.Lock()
	for name := range s.execs {
		found := false
		for _, n := range names {
			if n == name {
				found = true
				break
			}
		}
		if !found {
			names = append(names, name)
		}
	}
	s.execMu.Unlock()
	sort.Strings(names)
	out := make([]breakerInfo, 0, len(names))
	for _, name := range names {
		info := breakerInfo{machine: name, state: resilient.StateClosed}
		if br := s.breakerFor(name); br != nil {
			info.state = br.State()
			info.stats = br.Stats()
		}
		out = append(out, info)
	}
	return out
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, r, apiErrorf(http.StatusNotFound, CodeNotFound, "no route %s %s", r.Method, r.URL.Path))
}
