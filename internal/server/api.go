package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/backend"
	"biasmit/internal/obs"
	"biasmit/internal/overload"
	"biasmit/internal/resilient"
)

// apiErrorf builds an api.Error with a formatted message.
func apiErrorf(status int, code, format string, args ...any) *api.Error {
	return &api.Error{Code: code, Message: fmt.Sprintf(format, args...), Status: status}
}

// toAPIError maps an arbitrary pipeline error onto the typed wire shape:
// api.Errors pass through, budget violations become bad_budget (a client
// mistake, not a server fault), and context endings become
// deadline_exceeded/canceled. Anything else is an internal error.
func toAPIError(err error) *api.Error {
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae
	}
	var boe *resilient.BreakerOpenError
	if errors.As(err, &boe) {
		out := apiErrorf(http.StatusServiceUnavailable, api.CodeBreakerOpen, "%v", boe)
		out.RetryAfter = boe.RetryAfter
		return out
	}
	var oe *overload.Error
	if errors.As(err, &oe) {
		// Shed by admission control: the typed 503 carries Retry-After so
		// well-behaved clients back off instead of hammering.
		out := apiErrorf(http.StatusServiceUnavailable, api.CodeOverloaded, "%v", oe)
		out.RetryAfter = oe.RetryAfter
		return out
	}
	var be *backend.BudgetError
	if errors.As(err, &be) {
		return apiErrorf(http.StatusBadRequest, api.CodeBadBudget, "%v", be)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return apiErrorf(http.StatusGatewayTimeout, api.CodeDeadlineExceeded, "request deadline exceeded")
	}
	if errors.Is(err, context.Canceled) {
		return apiErrorf(http.StatusServiceUnavailable, api.CodeCanceled, "request canceled")
	}
	var te *backend.TransientError
	if errors.As(err, &te) {
		return apiErrorf(http.StatusServiceUnavailable, api.CodeUpstreamTransient,
			"run kept failing transiently after retries: %v", err)
	}
	return apiErrorf(http.StatusInternalServerError, api.CodeInternal, "%v", err)
}

// asBadRequest is toAPIError with a different default: pipeline stages
// whose failures are driven by request parameters (benchmark
// construction, transpilation, policy configuration) surface their plain
// errors as bad_request instead of internal.
func asBadRequest(err error) *api.Error {
	if ae := toAPIError(err); ae.Code != api.CodeInternal || errors.As(err, new(*api.Error)) {
		return ae
	}
	return apiErrorf(http.StatusBadRequest, api.CodeBadRequest, "%v", err)
}

// writeJSON writes v with the given status, stamping the protocol
// version and the request's trace ID on every body that embeds
// api.Envelope (all of them — the contract says every response carries
// "api_version", and every envelope echoes the X-Trace-Id header as
// trace_id). Serialization runs under its own span so slow encodes show
// up in the stage breakdown.
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	stampEnvelope(v, obs.TraceID(r.Context()))
	sp := obs.StartSpan(r.Context(), "serialize")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	sp.End()
}

// stampEnvelope sets the protocol version and the trace ID on a body
// that embeds api.Envelope.
func stampEnvelope(v any, traceID string) {
	if e, ok := v.(interface {
		SetAPIVersion(string)
		SetTraceID(string)
	}); ok {
		e.SetAPIVersion(api.Version)
		e.SetTraceID(traceID)
	}
}

// writeError maps err onto the typed wire shape and writes it, with a
// Retry-After header (in whole seconds, rounded up) when the error
// carries a cooldown. The error copy is stamped with the request's
// trace ID so every failure — 4xx and 5xx alike — is correlatable with
// the daemon's logs and /debug/traces.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	ae := *toAPIError(err)
	ae.TraceID = obs.TraceID(r.Context())
	if ae.RetryAfter > 0 {
		secs := int64((ae.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, r, ae.Status, &api.ErrorEnvelope{Error: &ae})
}

// defaultPageLimit caps one page of a list response (GET /v1/profiles,
// GET /v1/jobs). Calls without ?limit= get up to this many entries plus
// a next_cursor when more remain, so pre-pagination clients keep
// working against any listing that fits one page.
const defaultPageLimit = 1000

// parsePage reads the shared ?limit=/?cursor= pagination parameters.
// Cursors are opaque watermarks (the last entry of the previous page);
// pages start strictly after them, which keeps iteration stable under
// concurrent inserts — new ULIDs sort after every ID already handed
// out.
func parsePage(q url.Values) (limit int, cursor string, aerr *api.Error) {
	limit = defaultPageLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		// Non-integers, zero, and negatives are caller bugs: reject
		// with a typed 400 rather than silently serving the default
		// page. Values past the cap merely clamp — asking for "a lot"
		// is well-formed, the server just bounds its own work.
		if err != nil || n < 1 {
			return 0, "", apiErrorf(http.StatusBadRequest, api.CodeBadRequest,
				"bad limit %q (want a positive integer; pages cap at %d)", v, defaultPageLimit)
		}
		if n > defaultPageLimit {
			n = defaultPageLimit
		}
		limit = n
	}
	return limit, q.Get("cursor"), nil
}

// maxBodyBytes bounds request bodies; circuits above this are not a
// serving-path use case.
const maxBodyBytes = 1 << 20

// decodeJSON strictly decodes a request body into v, under the decode
// span. Oversized bodies get their own status and stable code (413
// body_too_large) so clients can tell "shrink the circuit" apart from
// "fix the JSON".
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	sp := obs.StartSpan(r.Context(), "decode")
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	sp.End()
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return apiErrorf(http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
		}
		return apiErrorf(http.StatusBadRequest, api.CodeBadRequest, "decoding request body: %v", err)
	}
	return nil
}
