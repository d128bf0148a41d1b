package server

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"net/http"
	"strconv"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/backend"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/experiments"
	"biasmit/internal/kernels"
	"biasmit/internal/metrics"
	"biasmit/internal/obs"
	"biasmit/internal/orchestrate"
	"biasmit/internal/overload"
	"biasmit/internal/profilestore"
	"biasmit/internal/qasm"
	"biasmit/internal/rescache"
	"biasmit/internal/resilient"
)

// The request pipeline behind POST /v1/mitigate, POST /v1/characterize
// and their async jobs: plan, result cache, admission, execution and
// characterization. The HTTP handlers and execJob are its only callers.

// Defaults a mitigate plan applies to the request fields left unset.
const (
	defaultSIMModes    = 4
	defaultTopOutcomes = 10
)

// Every AWCT characterization the server runs uses these windows, so a
// register narrower than awctWindow cannot be characterized by AWCT.
const (
	awctWindow  = 4
	awctOverlap = 2
)

// mitigatePlan is a validated mitigate request with every default
// applied: the one normalization of the request that execution reads
// and the result cache hashes. Its JSON is the cache key, so it carries
// every field that can change the response bytes and nothing else.
// Requests that differ only in spelling (seed 0 or 1, SIM modes 0 or 4,
// top 0 or 10, an omitted, "auto" or explicit profile method naming the
// same method) hash alike; timeouts, trace IDs and tenants are absent.
// The benchmark name, the QASM text, AIM's canary fraction and K are
// hashed as sent. The api version is hashed so a protocol bump can
// never replay old-shape bytes.
type mitigatePlan struct {
	V       string  `json:"v"`
	Machine string  `json:"machine"`
	Bench   string  `json:"bench,omitempty"`
	QASM    string  `json:"qasm,omitempty"`
	Policy  string  `json:"policy"`
	Shots   int     `json:"shots"`
	Seed    int64   `json:"seed"`
	Modes   int     `json:"modes,omitempty"`  // SIM only
	Canary  float64 `json:"canary,omitempty"` // AIM only, as are K, Method and Require
	K       int     `json:"k,omitempty"`
	Method  string  `json:"method,omitempty"`
	Require bool    `json:"require,omitempty"`
	Top     int     `json:"top,omitempty"`

	dev       *device.Device
	bench     kernels.Benchmark
	timeoutMS int
}

// profileKey names the RBMS profile an AIM plan runs against.
func (p *mitigatePlan) profileKey() profilestore.Key {
	return profilestore.Key{Machine: p.Machine, Width: p.bench.Width(), Method: p.Method}
}

// validateMitigate runs every check a mitigate request must pass before
// it takes an admission slot and returns its plan. POST /v1/jobs runs
// it at submission, so a job the synchronous route would reject never
// enters the queue.
func (s *Server) validateMitigate(req *api.MitigateRequest) (*mitigatePlan, error) {
	dev, ok := device.ByName(req.Machine)
	if !ok {
		return nil, apiErrorf(http.StatusNotFound, api.CodeUnknownMachine, "unknown machine %q", req.Machine)
	}
	bench, err := resolveBenchmark(req)
	if err != nil {
		return nil, err
	}
	if err := backend.CheckShots(req.Shots); err != nil {
		return nil, err
	}
	if req.Shots > s.cfg.MaxShots {
		return nil, apiErrorf(http.StatusBadRequest, api.CodeBadBudget,
			"shot budget %d exceeds the server's per-request cap %d", req.Shots, s.cfg.MaxShots)
	}
	p := &mitigatePlan{
		V: api.Version, Machine: dev.Name, Bench: req.Benchmark, QASM: req.QASM,
		Policy: req.Policy, Shots: req.Shots, Seed: req.Seed, Top: req.Top,
		dev: dev, bench: bench, timeoutMS: req.TimeoutMS,
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Top <= 0 {
		p.Top = defaultTopOutcomes
	}
	switch req.Policy {
	case "baseline":
	case "sim":
		if p.Modes = req.Modes; p.Modes == 0 {
			p.Modes = defaultSIMModes
		}
		if p.Modes != 1 && p.Modes != 2 && p.Modes != 4 && p.Modes != 8 {
			return nil, apiErrorf(http.StatusBadRequest, api.CodeBadRequest,
				"unsupported SIM mode count %d (want 1, 2, 4, or 8)", p.Modes)
		}
	case "aim":
		p.Canary, p.K, p.Require = req.CanaryFraction, req.K, req.RequireCachedProfile
		if p.Method, err = resolveProfileMethod(req.ProfileMethod, bench.Width()); err != nil {
			return nil, err
		}
	default:
		return nil, apiErrorf(http.StatusBadRequest, api.CodeBadRequest,
			"unknown policy %q (want baseline, sim, or aim)", req.Policy)
	}
	if req.CanaryFraction < 0 || req.CanaryFraction >= 1 {
		return nil, apiErrorf(http.StatusBadRequest, api.CodeBadRequest, "canary_fraction %v out of [0,1)", req.CanaryFraction)
	}
	if req.K < 0 {
		return nil, apiErrorf(http.StatusBadRequest, api.CodeBadRequest, "k must be non-negative")
	}
	if w := bench.Width(); w > dev.NumQubits {
		return nil, apiErrorf(http.StatusBadRequest, api.CodeBadRequest,
			"circuit needs %d qubits but %s has %d", w, dev.Name, dev.NumQubits)
	}
	return p, nil
}

// resolveBenchmark builds the workload a mitigate request names: an
// inline QASM program, or a benchmark experiments.BenchmarkByName
// knows (a paper suite benchmark or a bv:<key>, prep:<bits> or ghz-<n>
// shorthand).
func resolveBenchmark(req *api.MitigateRequest) (kernels.Benchmark, error) {
	switch {
	case req.QASM != "" && req.Benchmark != "":
		return kernels.Benchmark{}, apiErrorf(http.StatusBadRequest, api.CodeBadRequest,
			"benchmark and qasm are mutually exclusive")
	case req.QASM != "":
		c, err := qasm.Parse(req.QASM)
		if err != nil {
			return kernels.Benchmark{}, apiErrorf(http.StatusBadRequest, api.CodeBadRequest, "parsing qasm: %v", err)
		}
		return kernels.Benchmark{Name: c.Name, Circuit: c}, nil
	case req.Benchmark == "":
		return kernels.Benchmark{}, apiErrorf(http.StatusBadRequest, api.CodeBadRequest,
			"one of benchmark or qasm is required")
	}
	bench, err := experiments.BenchmarkByName(req.Benchmark)
	if err != nil {
		return kernels.Benchmark{}, apiErrorf(http.StatusBadRequest, api.CodeUnknownBenchmark, "%v", err)
	}
	return bench, nil
}

// resolveProfileMethod applies the paper's size rule when the request
// does not force a method: brute force up to 5 qubits, AWCT beyond. A
// forced AWCT needs a register at least one window wide.
func resolveProfileMethod(method string, width int) (string, error) {
	switch method {
	case "", "auto":
		if width <= 5 {
			return "brute", nil
		}
		return "awct", nil
	case "awct":
		if width < awctWindow {
			return "", apiErrorf(http.StatusBadRequest, api.CodeBadRequest,
				"awct characterizes %d-qubit windows, so it needs at least %d qubits, not %d", awctWindow, awctWindow, width)
		}
		return method, nil
	case "brute", "esct":
		return method, nil
	}
	return "", apiErrorf(http.StatusBadRequest, api.CodeBadRequest,
		"unknown characterization method %q (want brute, esct, awct, or auto)", method)
}

// mitigate validates and executes one mitigate request, through the
// result cache when it is on.
func (s *Server) mitigate(ctx context.Context, req *api.MitigateRequest) (*api.MitigateResponse, error) {
	p, err := s.validateMitigate(req)
	if err != nil {
		return nil, err
	}
	if s.rescache != nil {
		return s.mitigateCached(ctx, p)
	}
	resp, _, err := s.mitigateExec(ctx, p)
	return resp, err
}

// mitigateCached fronts mitigateExec with the result cache: the plan's
// hash plus the AIM profile's generation addresses the stored bytes,
// and identical in-flight requests coalesce onto one execution. Every
// result is stored under the generation of the profile its run
// consumed, so a result whose profile was replaced mid-run is dropped
// by the next lookup instead of replayed.
// Cached bytes are the marshaled response exactly as first computed,
// ElapsedMS included, so a hit is byte-identical to the original; only
// the per-request envelope and the cache_hit/coalesced metadata differ.
func (s *Server) mitigateCached(ctx context.Context, p *mitigatePlan) (*api.MitigateResponse, error) {
	csp := obs.StartSpan(ctx, "cache")
	key, err := rescache.HashKey(p)
	// Baseline and SIM runs touch no profile: their generation is 0.
	var gen uint64
	if p.Policy == "aim" {
		gen = s.store.Generation(p.profileKey())
	}
	csp.End()
	if err != nil {
		return nil, err
	}

	compute := func(cctx context.Context) (rescache.Computed, error) {
		resp, used, rerr := s.mitigateExec(cctx, p)
		if rerr != nil {
			return rescache.Computed{}, rerr
		}
		data, merr := json.Marshal(resp)
		if merr != nil {
			return rescache.Computed{}, merr
		}
		return rescache.Computed{Value: data, Gen: used}, nil
	}

	data, outcome, err := s.rescache.Do(ctx, key, gen, compute)
	obs.Annotate(ctx, "result cache: %s", outcome)
	if err != nil {
		return nil, toAPIError(err)
	}
	// Unmarshal a fresh struct per request: the cached bytes are
	// shared, and writeJSON stamps a per-request envelope on whatever
	// struct it is handed.
	resp := new(api.MitigateResponse)
	if uerr := json.Unmarshal(data, resp); uerr != nil {
		return nil, apiErrorf(http.StatusInternalServerError, api.CodeInternal, "decoding cached result: %v", uerr)
	}
	switch outcome {
	case rescache.Hit:
		resp.CacheHit = true
	case rescache.Coalesced:
		resp.Coalesced = true
	}
	return resp, nil
}

// admit derives the execution context (the request's own timeout if
// set, else the server default, never above the server maximum) and
// reserves an execution slot through the priority gate: a request past
// the MaxJobs running ones queues, and freed slots go to the highest
// class first. Without a QueueTimeout it waits until a slot frees or
// its deadline ends; with one an interactive request is shed, lowest
// class first, with a typed overload error, and a job execution still
// waits. done releases the slot and the deadline.
func (s *Server) admit(ctx context.Context, timeoutMS int) (_ context.Context, done func(), err error) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, min(d, s.cfg.MaxTimeout))
	sp := obs.StartSpan(ctx, "queue_wait")
	release, err := s.limiter.Acquire(ctx, overload.ClassFromContext(ctx))
	sp.End()
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return ctx, func() { release(); cancel() }, nil
}

// newExecutor builds the retrying executor every machine's runs go
// through, over the one fault injector, whose schedule counts every run
// the daemon makes. It is the only code that retries a backend run,
// sync or async. Every run holds one of the MaxJobs admission slots
// while it retries, so retries lengthen a request but add no
// concurrency, and RetryAttempts caps each run's attempts.
func newExecutor(cfg Config) *resilient.Executor {
	run := backend.RunContext
	if cfg.wrapRun != nil {
		run = cfg.wrapRun(run)
	}
	return resilient.New(cfg.Chaos.Wrap(run), resilient.Policy{
		MaxAttempts: cfg.RetryAttempts,
		Seed:        cfg.Seed,
		Sleep:       cfg.sleep,
	})
}

// machine is the core.Machine every run on dev goes through: the
// server's worker bound and its retrying executor.
func (s *Server) machine(dev *device.Device) *core.Machine {
	m := core.NewMachine(dev)
	m.Workers = s.cfg.Workers
	m.Run = s.exec.Run
	return m
}

// mitigateExec runs one plan through the pipeline: admission,
// placement, sample, correct. It is the compute function behind the
// result cache, and also returns the generation of the profile the run
// consumed (0 for baseline and SIM, which use none): the generation
// the result is stored under.
func (s *Server) mitigateExec(ctx context.Context, p *mitigatePlan) (*api.MitigateResponse, uint64, error) {
	ctx, done, err := s.admit(ctx, p.timeoutMS)
	if err != nil {
		return nil, 0, err
	}
	defer done()

	job, err := core.NewJob(p.bench.Circuit, s.machine(p.dev))
	if err != nil {
		return nil, 0, asBadRequest(err)
	}

	started := time.Now()
	resp := &api.MitigateResponse{
		Machine:      p.Machine,
		Benchmark:    p.bench.Name,
		Policy:       p.Policy,
		ServedPolicy: p.Policy,
		Shots:        p.Shots,
		Seed:         p.Seed,
		Layout:       job.Plan.InitialLayout,
		Swaps:        job.Plan.SwapCount,
	}
	var (
		counts *dist.Counts
		gen    uint64
	)
	switch p.Policy {
	case "baseline":
		ssp := obs.StartSpan(ctx, "sample").Tag("policy", p.Policy)
		counts, err = job.BaselineContext(ctx, p.Shots, p.Seed)
		ssp.End()
		if err != nil {
			return nil, 0, toAPIError(err)
		}
	case "sim":
		invs, serr := core.StandardInversionStrings(job.Width(), p.Modes)
		if serr != nil {
			return nil, 0, asBadRequest(serr)
		}
		ssp := obs.StartSpan(ctx, "sample").Tag("policy", p.Policy)
		res, serr := core.SIMContext(ctx, job, invs, p.Shots, p.Seed)
		ssp.End()
		if serr != nil {
			return nil, 0, asBadRequest(serr)
		}
		counts = res.Merged
	case "aim":
		prof, cached, aerr := s.aimProfile(ctx, p)
		if aerr != nil {
			return nil, 0, aerr
		}
		gen = prof.Gen
		cfg := core.AIMConfig{CanaryFraction: p.Canary, K: p.K}
		ssp := obs.StartSpan(ctx, "sample").Tag("policy", p.Policy)
		res, serr := core.AIMContext(ctx, job, prof.RBMS, cfg, p.Shots, p.Seed)
		ssp.End()
		if serr != nil {
			return nil, 0, asBadRequest(serr)
		}
		counts = res.Merged
		resp.Strongest = res.Strongest.String()
		for _, c := range res.Candidates {
			resp.Candidates = append(resp.Candidates, api.AIMCandidate{
				Output:     c.Output.String(),
				Likelihood: c.Likelihood,
				Inversion:  c.Inversion.String(),
			})
		}
		resp.Profile = &api.MitigateProfile{ProfileInfo: s.profileInfo(prof), Cached: cached}
	}

	csp := obs.StartSpan(ctx, "correct")
	d := counts.Dist()
	resp.Outcomes, resp.DistinctOutcomes = outcomeRows(p, counts, d)
	if correct := p.bench.Correct; len(correct) > 0 {
		resp.Metrics = &api.PolicyMetrics{
			PST:  metrics.PSTEquiv(d, correct...),
			IST:  metrics.IST(d, correct...),
			ROCA: metrics.ROCA(d, correct...),
		}
		for _, b := range correct {
			resp.Correct = append(resp.Correct, b.String())
		}
	}
	csp.End()
	resp.ElapsedMS = float64(time.Since(started).Microseconds()) / 1000
	return resp, gen, nil
}

// outcomeRows renders the plan's top outcomes of a run's histogram (d
// is its distribution) and counts its distinct outcomes. The rows are
// sized by the outcomes that exist, so a top above their count lists
// every one.
func outcomeRows(p *mitigatePlan, counts *dist.Counts, d dist.Dist) ([]api.OutcomeCount, int) {
	top := d.TopK(p.Top)
	rows := make([]api.OutcomeCount, 0, len(top))
	for _, b := range top {
		rows = append(rows, api.OutcomeCount{
			Outcome:     b.String(),
			Count:       counts.Get(b),
			Probability: d.Prob(b),
		})
	}
	return rows, len(d.P)
}

// aimProfile resolves the RBMS profile an AIM plan needs: the cached
// profile when there is one, otherwise an in-line characterization,
// unless the request insists on cache-only, which maps a miss onto the
// profile_stale error. The second result reports a cache hit.
func (s *Server) aimProfile(ctx context.Context, p *mitigatePlan) (*profilestore.Profile, bool, error) {
	key := p.profileKey()
	sp := obs.StartSpan(ctx, "characterize")
	defer sp.End()
	if p.Require {
		prof, ok := s.store.Get(key)
		if !ok {
			return nil, false, apiErrorf(http.StatusConflict, api.CodeProfileStale,
				"no fresh %s profile cached for %s; POST /v1/characterize first or drop require_cached_profile", p.Method, key)
		}
		sp.Tag("cached", "true")
		return prof, true, nil
	}
	prof, cached, err := s.store.Serve(ctx, key)
	sp.Tag("cached", strconv.FormatBool(cached))
	if err != nil {
		return nil, false, toAPIError(err)
	}
	return prof, cached, nil
}

// validateCharacterize checks a characterization request and resolves
// the profile it names. POST /v1/jobs runs it at submission.
func (s *Server) validateCharacterize(req *api.CharacterizeRequest) (profilestore.Key, error) {
	dev, ok := device.ByName(req.Machine)
	if !ok {
		return profilestore.Key{}, apiErrorf(http.StatusNotFound, api.CodeUnknownMachine, "unknown machine %q", req.Machine)
	}
	width := req.Qubits
	if width == 0 {
		width = dev.NumQubits
		if (req.Method == "" || req.Method == "auto" || req.Method == "brute") && width > 5 {
			width = 5
		}
	}
	if width < 1 || width > dev.NumQubits {
		return profilestore.Key{}, apiErrorf(http.StatusBadRequest, api.CodeBadRequest,
			"qubits %d out of range [1,%d] for %s", width, dev.NumQubits, dev.Name)
	}
	method, err := resolveProfileMethod(req.Method, width)
	if err != nil {
		return profilestore.Key{}, err
	}
	return profilestore.Key{Machine: dev.Name, Width: width, Method: method}, nil
}

// characterize validates and executes one characterization request
// against the shared profile store.
func (s *Server) characterize(ctx context.Context, req *api.CharacterizeRequest) (*api.CharacterizeResponse, error) {
	key, err := s.validateCharacterize(req)
	if err != nil {
		return nil, err
	}
	ctx, done, err := s.admit(ctx, req.TimeoutMS)
	if err != nil {
		return nil, err
	}
	defer done()

	started := time.Now()
	var (
		p      *profilestore.Profile
		cached bool
	)
	csp := obs.StartSpan(ctx, "characterize")
	if req.Force {
		p, err = s.store.Characterize(ctx, key)
		csp.Tag("forced", "true")
	} else {
		p, cached, err = s.store.Serve(ctx, key)
		csp.Tag("cached", strconv.FormatBool(cached))
	}
	csp.End()
	if err != nil {
		return nil, toAPIError(err)
	}
	resp := &api.CharacterizeResponse{
		Profile:   s.profileInfo(p),
		Cached:    cached,
		ElapsedMS: float64(time.Since(started).Microseconds()) / 1000,
	}
	if req.IncludeStrengths || p.Key.Width <= 8 {
		resp.Strengths = p.RBMS.Relative().Strength
	}
	return resp, nil
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
	dev, ok := device.ByName(key.Machine)
	if !ok {
		return nil, apiErrorf(http.StatusNotFound, api.CodeUnknownMachine, "unknown machine %q", key.Machine)
	}
	if key.Width < 1 || key.Width > dev.NumQubits {
		return nil, apiErrorf(http.StatusBadRequest, api.CodeBadRequest,
			"register width %d out of range [1,%d] for %s", key.Width, dev.NumQubits, dev.Name)
	}
	layout := make([]int, key.Width)
	for i := range layout {
		layout[i] = i
	}
	prof := &core.Profiler{Machine: s.machine(dev), Layout: layout}
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
		rbms, err = prof.AWCTContext(ctx, awctWindow, awctOverlap, s.cfg.ProfileShots, seed)
	default:
		return nil, apiErrorf(http.StatusBadRequest, api.CodeBadRequest, "unknown characterization method %q", key.Method)
	}
	if err != nil {
		return nil, err
	}
	return &profilestore.Profile{Key: key, RBMS: rbms, Layout: layout, Shots: s.cfg.ProfileShots}, nil
}
