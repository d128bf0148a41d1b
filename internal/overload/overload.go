// Package overload is the admission-control layer for biasmitd: a
// fixed-limit priority admission gate (per-class FIFO queues admitted
// highest class first, with an optional CoDel-style queue timeout and a
// bounded queue that shed lowest class first) and deadline propagation
// over the wire.
//
// The package depends only on the standard library so that server and
// client can both import it without cycles. The gate is safe for
// concurrent use, and its queue timeouts take an injectable timer.
package overload

import (
	"context"
	"fmt"
	"time"
)

// Class is the admission priority of a request. Freed slots go to the
// highest class first, and shedding order is the inverse of the numeric
// order: ClassJobs is shed first (async work can
// wait in the durable queue), ClassCharacterize is shed last
// (characterization runs are the expensive investment that every later
// mitigation amortizes, so dropping one wastes the most).
type Class int

const (
	// ClassJobs is asynchronous job execution — shed first.
	ClassJobs Class = iota
	// ClassMitigate is interactive mitigation traffic.
	ClassMitigate
	// ClassCharacterize is profile characterization — shed last.
	ClassCharacterize

	numClasses = 3
)

// String returns the metrics label for the class.
func (c Class) String() string {
	switch c {
	case ClassJobs:
		return "jobs"
	case ClassMitigate:
		return "mitigate"
	case ClassCharacterize:
		return "characterize"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

type classKey struct{}

// WithClass stamps the admission class on a context so handlers deep in
// the call tree (the jobs executor, the characterize path) are admitted
// at the right priority without threading an extra parameter.
func WithClass(ctx context.Context, c Class) context.Context {
	return context.WithValue(ctx, classKey{}, c)
}

// ClassFromContext returns the stamped class, defaulting to
// ClassMitigate for unmarked requests.
func ClassFromContext(ctx context.Context) Class {
	if c, ok := ctx.Value(classKey{}).(Class); ok {
		return c
	}
	return ClassMitigate
}

// Error is the typed shed decision. It maps to HTTP 503 with the stable
// code "overloaded" and a Retry-After hint; callers should not retry
// before RetryAfter.
type Error struct {
	// Reason is a stable machine-readable cause: "queue_full",
	// "queue_timeout", or "deadline_budget".
	Reason string
	// Class that was shed.
	Class Class
	// RetryAfter is the suggested backoff before retrying.
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	return fmt.Sprintf("overloaded: %s (class %s, retry after %s)", e.Reason, e.Class, e.RetryAfter)
}
