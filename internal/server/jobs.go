package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/jobs"
	"biasmit/internal/obs"
	"biasmit/internal/overload"
)

// The async job API: POST /v1/jobs submits a mitigation or
// characterization as a queued job, GET polls it (optionally
// long-polling with ?wait=), DELETE cancels it. Jobs execute through
// the exact same validation and execution paths as the synchronous
// endpoints — same admission gate, same deadline, same seeds — so a
// job's result is byte-identical to what the synchronous call would
// have returned.

// tenantKey resolves the fairness/quota identity of a request: the
// X-API-Key header, or "anon".
func tenantKey(r *http.Request) string {
	if k := strings.TrimSpace(r.Header.Get("X-API-Key")); k != "" {
		return k
	}
	return "anon"
}

// jobError maps queue errors onto the typed wire shape.
func jobError(err error) *api.Error {
	var qe *jobs.QuotaError
	switch {
	case errors.As(err, &qe):
		out := apiErrorf(http.StatusTooManyRequests, api.CodeQuotaExceeded,
			"tenant %q already has %d jobs queued or running", qe.Tenant, qe.Limit)
		out.RetryAfter = time.Second
		return out
	case errors.Is(err, jobs.ErrNotFound):
		return apiErrorf(http.StatusNotFound, api.CodeJobNotFound, "no such job")
	case errors.Is(err, jobs.ErrTerminal):
		return apiErrorf(http.StatusConflict, api.CodeJobTerminal, "job already reached a terminal state")
	}
	return toAPIError(err)
}

// jobInfo renders a queue job for the wire. The trace ID travels in
// the persisted spec, so it survives restarts and crash recovery along
// with the job itself.
func jobInfo(j jobs.Job) api.JobInfo {
	info := api.JobInfo{
		ID:              j.ID,
		Type:            j.Spec.Type,
		State:           string(j.State),
		Tenant:          j.Spec.Tenant,
		Priority:        j.Spec.Priority,
		TraceID:         j.Spec.TraceID,
		SubmittedAt:     j.SubmittedAt.UTC(),
		Attempts:        j.Attempts,
		Requeues:        j.Requeues,
		CancelRequested: j.CancelRequested,
	}
	if !j.StartedAt.IsZero() {
		t := j.StartedAt.UTC()
		info.StartedAt = &t
	}
	if !j.FinishedAt.IsZero() {
		t := j.FinishedAt.UTC()
		info.FinishedAt = &t
	}
	if j.Failure != nil {
		info.Error = &api.Error{
			Code:    j.Failure.Code,
			Message: j.Failure.Message,
			TraceID: j.Spec.TraceID,
			Status:  j.Failure.Status,
		}
	}
	return info
}

func jobResponse(j jobs.Job) *api.JobResponse {
	return &api.JobResponse{Job: jobInfo(j), Result: j.Result}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleJobSubmit(w, r)
	case http.MethodGet:
		s.handleJobList(w, r)
	default:
		writeError(w, r, apiErrorf(http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"%s requires POST or GET", r.URL.Path))
	}
}

// handleJobSubmit runs the synchronous endpoint's validation on the
// submission — a job the sync call would reject never enters the
// queue — and durably enqueues it.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.JobSubmitRequest
	err := decodeJSON(w, r, &req)
	if err != nil {
		writeError(w, r, err)
		return
	}
	spec := jobs.Spec{
		Type:        req.Type,
		Tenant:      tenantKey(r),
		Priority:    req.Priority,
		MaxAttempts: req.MaxAttempts,
		// The submission's trace ID rides into the persisted spec: the
		// job's executions — including a re-run after crash recovery —
		// continue the trace the submitter saw in the 202 envelope.
		TraceID: obs.TraceID(r.Context()),
	}
	// Deadline propagation: a caller's X-Request-Deadline rides into the
	// persisted spec, so the scheduler sheds the job the moment its
	// budget lapses — even across a crash and recovery — instead of
	// burning a worker on an answer nobody is waiting for.
	if spec.Deadline, err = requestDeadline(r); err != nil {
		writeError(w, r, err)
		return
	}
	jt, ok := s.jobTypes[req.Type]
	if !ok {
		writeError(w, r, apiErrorf(http.StatusBadRequest, api.CodeBadRequest,
			"unknown job type %q (want %s or %s)", req.Type, api.JobTypeMitigate, api.JobTypeCharacterize))
		return
	}
	body, err := jt.check(&req)
	if err != nil {
		writeError(w, r, err)
		return
	}
	if spec.Payload, err = json.Marshal(body); err != nil {
		writeError(w, r, apiErrorf(http.StatusBadRequest, api.CodeBadRequest, "encoding job payload: %v", err))
		return
	}
	j, err := s.jobq.Submit(spec)
	if err != nil {
		writeError(w, r, jobError(err))
		return
	}
	writeJSON(w, r, http.StatusAccepted, jobResponse(j))
}

// execJob is the scheduler's executor. It rebuilds the job's trace
// from the persisted spec — the scheduler's execution context is
// detached from the submitting request, and a SIGKILL-recovered job
// has no live request at all, so the spec's trace ID is the thread
// that survives — then runs the payload through the exact synchronous
// path and records the finished trace like any HTTP request.
func (s *Server) execJob(ctx context.Context, j jobs.Job) (json.RawMessage, *jobs.Failure) {
	// Async work is the first class shed under overload: its callers
	// already chose to wait, so an admission retry later beats competing
	// with interactive requests now.
	ctx = overload.WithClass(ctx, overload.ClassJobs)
	tr := obs.NewTrace(j.Spec.TraceID, s.cfg.Now)
	tr.SetTag("job_id", j.ID)
	tr.SetTag("tenant", j.Spec.Tenant)
	if j.Requeues > 0 {
		tr.SetTag("requeues", strconv.Itoa(j.Requeues))
	}
	if qw := s.cfg.Now().Sub(j.SubmittedAt); qw > 0 {
		tr.AddSpan("queue_wait", qw)
	}
	ctx = obs.WithTrace(ctx, tr)
	result, fail := s.runJob(ctx, j)
	status := http.StatusOK
	if fail != nil {
		status = fail.Status
		if status == 0 {
			status = http.StatusInternalServerError
		}
		tr.Annotate("failed: %s: %s", fail.Code, fail.Message)
	}
	td := tr.Finish("job:"+j.Spec.Type, status)
	s.traces.Record(td)
	s.logTrace("job", td)
	return result, fail
}

// jobType is one async job type: check picks the type's body out of a
// submission and runs the synchronous route's validation on it (a job
// the sync call would reject never enters the queue), and run decodes a
// stored payload and runs it through the synchronous path.
type jobType struct {
	check func(*api.JobSubmitRequest) (body any, err error)
	run   func(ctx context.Context, payload json.RawMessage) (any, error)
}

// newJobType builds a job type from the submission field holding its
// body and the sync route's validation and run.
func newJobType[Req, Plan, Resp any](body func(*api.JobSubmitRequest) *Req,
	validate func(*Req) (Plan, error), run func(context.Context, *Req) (Resp, error)) jobType {
	return jobType{
		check: func(r *api.JobSubmitRequest) (any, error) {
			b := body(r)
			if b == nil || (r.Mitigate != nil && r.Characterize != nil) {
				return nil, apiErrorf(http.StatusBadRequest, api.CodeBadRequest,
					"a %q job carries exactly the %s body", r.Type, r.Type)
			}
			_, err := validate(b)
			return b, err
		},
		run: func(ctx context.Context, payload json.RawMessage) (any, error) {
			req := new(Req)
			if err := json.Unmarshal(payload, req); err != nil {
				return nil, apiErrorf(http.StatusInternalServerError, api.CodeInternal, "decoding job payload: %v", err)
			}
			return run(ctx, req)
		},
	}
}

// runJob runs the payload through the exact synchronous path.
// Deterministic per spec — the seeds are in the payload — which is what
// makes crash-recovery re-runs byte-identical.
func (s *Server) runJob(ctx context.Context, j jobs.Job) (json.RawMessage, *jobs.Failure) {
	jt, ok := s.jobTypes[j.Spec.Type]
	if !ok {
		return nil, jobFailure(apiErrorf(http.StatusBadRequest, api.CodeBadRequest, "unknown job type %q", j.Spec.Type))
	}
	result, err := jt.run(ctx, j.Spec.Payload)
	if err != nil {
		return nil, jobFailure(err)
	}
	// A job's stored result carries the envelope the synchronous call's
	// body would, trace ID included, which is how a recovered job's
	// result still names its original trace.
	stampEnvelope(result, obs.TraceID(ctx))
	raw, err := json.Marshal(result)
	if err != nil {
		return nil, jobFailure(apiErrorf(http.StatusInternalServerError, api.CodeInternal, "encoding job result: %v", err))
	}
	return raw, nil
}

// jobFailure maps an execution error onto the job's terminal failure,
// marking the transient classes (upstream faults, open breakers)
// retryable so the scheduler can requeue within the job's attempt
// budget — with the breaker's cooldown as the retry delay.
func jobFailure(err error) *jobs.Failure {
	ae := toAPIError(err)
	f := &jobs.Failure{Code: ae.Code, Message: ae.Message, Status: ae.Status}
	switch ae.Code {
	case api.CodeUpstreamTransient, api.CodeBreakerOpen, api.CodeOverloaded:
		f.Retryable = true
		f.RetryAfterMS = ae.RetryAfter.Milliseconds()
	}
	return f
}

// handleJobList lists jobs in submission (ULID) order, one page at a
// time: ?cursor= is the ID of the last job of the previous page,
// ?limit= bounds the page (the documented default cap applies either
// way), and next_cursor in the envelope links the pages. The
// strictly-after cursor makes iteration stable under concurrent
// submissions — new jobs mint later ULIDs than any already listed.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	state, err := jobs.ParseState(r.URL.Query().Get("state"))
	if err != nil {
		writeError(w, r, apiErrorf(http.StatusBadRequest, api.CodeBadRequest,
			"unknown state filter %q", r.URL.Query().Get("state")))
		return
	}
	limit, cursor, aerr := parsePage(r.URL.Query())
	if aerr != nil {
		writeError(w, r, aerr)
		return
	}
	page, next := s.jobq.Page(state, r.URL.Query().Get("tenant"), cursor, limit)
	resp := &api.JobListResponse{Jobs: []api.JobInfo{}, NextCursor: next}
	for _, j := range page {
		resp.Jobs = append(resp.Jobs, jobInfo(j))
	}
	writeJSON(w, r, http.StatusOK, resp)
}

func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, r, apiErrorf(http.StatusNotFound, api.CodeNotFound, "no route %s %s", r.Method, r.URL.Path))
		return
	}
	if err := obs.ValidID(id); err != nil {
		writeError(w, r, apiErrorf(http.StatusBadRequest, api.CodeBadRequest, "malformed job ID %q", id))
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.handleJobGet(w, r, id)
	case http.MethodDelete:
		s.handleJobCancel(w, r, id)
	default:
		writeError(w, r, apiErrorf(http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"%s requires GET or DELETE", r.URL.Path))
	}
}

// handleJobGet returns one job, long-polling up to ?wait= (a Go
// duration, or a plain number of seconds) for it to reach a terminal
// state. The response is 200 with the job's current state either way —
// a long poll that times out is not an error.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request, id string) {
	j, ok := s.jobq.Get(id)
	if !ok {
		writeError(w, r, jobError(jobs.ErrNotFound))
		return
	}
	if wait := r.URL.Query().Get("wait"); wait != "" && !j.State.Terminal() {
		d, err := parseWait(wait, s.cfg.MaxTimeout)
		if err != nil {
			writeError(w, r, apiErrorf(http.StatusBadRequest, api.CodeBadRequest, "bad wait %q: %v", wait, err))
			return
		}
		if ch, ok := s.jobq.Await(id); ok && d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-ch:
			case <-timer.C:
			case <-r.Context().Done():
			}
			timer.Stop()
		}
		j, _ = s.jobq.Get(id)
	}
	writeJSON(w, r, http.StatusOK, jobResponse(j))
}

// parseWait accepts "30s"-style durations and bare seconds, clamped
// into [0, max]. Negative and overflowing values clamp to max: a
// caller asking for an out-of-range wait wants "as long as you'll let
// me", and the alternatives are both bugs — a negative or
// float-overflowed duration would skip the wait entirely (an
// immediate-return busy-poll), and an unclamped positive one would
// pin the connection past the server's long-poll ceiling. Only
// syntactically malformed values (including NaN, which would
// otherwise slip through every range check) are errors.
func parseWait(s string, max time.Duration) (time.Duration, error) {
	if d, err := time.ParseDuration(s); err == nil {
		if d < 0 || d > max {
			return max, nil
		}
		return d, nil
	}
	secs, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(secs) {
		return 0, fmt.Errorf("want a duration like 30s")
	}
	if secs < 0 || secs >= float64(max)/float64(time.Second) {
		// Covers +Inf and values whose nanosecond count would
		// overflow (or merely exceed) the ceiling — the conversion
		// below is only reached when it is exact and in range.
		return max, nil
	}
	return time.Duration(secs * float64(time.Second)), nil
}

// handleJobCancel cancels a job: queued jobs die immediately, running
// jobs get their execution context cancelled and wind down
// asynchronously (poll for the cancelled state).
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request, id string) {
	j, err := s.jobq.Cancel(id)
	if err != nil {
		writeError(w, r, jobError(err))
		return
	}
	writeJSON(w, r, http.StatusOK, jobResponse(j))
}
