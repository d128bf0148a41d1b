package overload

import (
	"container/list"
	"context"
	"sync"
	"time"
)

// LimiterConfig tunes the admission gate. Zero fields take the
// documented defaults.
type LimiterConfig struct {
	// Limit is how many admitted requests may hold a slot at once
	// (default 1).
	Limit int
	// QueueTimeout, when positive, is the CoDel-style sojourn bound: a
	// request queued longer than this is shed with a typed 503 instead
	// of serving stale work. Zero waits for a slot until the caller's
	// context ends. ClassJobs waiters always wait.
	QueueTimeout time.Duration
	// MaxQueue, when positive, bounds the number of waiting interactive
	// requests (every class above ClassJobs); arrivals beyond it are
	// shed immediately, evicting a lower-class interactive waiter first
	// when the arrival outranks one. Zero leaves the queue unbounded.
	// ClassJobs waiters neither count toward it nor are refused by it.
	MaxQueue int

	// After is the injectable timer used for queue timeouts
	// (default time.After).
	After func(time.Duration) <-chan time.Time
}

func (c *LimiterConfig) defaults() {
	if c.Limit <= 0 {
		c.Limit = 1
	}
	if c.After == nil {
		c.After = time.After
	}
}

// Limiter is a fixed-limit priority admission gate. At most Limit
// requests hold a slot; the rest wait in per-class FIFO queues, and a
// freed slot goes to the oldest waiter of the highest class. With a
// QueueTimeout or a MaxQueue the gate also sheds interactive requests,
// lowest class first. It never sheds ClassJobs: a job execution waits
// until a slot frees or its own context ends, and its caller (the job
// scheduler, one worker slot per execution) bounds how many wait.
type Limiter struct {
	cfg LimiterConfig

	mu       sync.Mutex
	inflight int
	queues   [numClasses]*list.List // of *waiter, FIFO within a class

	stats LimiterStats
}

type waiter struct {
	class Class
	ch    chan func() // receives the release func on admission, nil on eviction
	elem  *list.Element
}

// LimiterStats is a snapshot of limiter counters for /metrics.
type LimiterStats struct {
	Inflight  int
	Queued    int
	Admitted  [numClasses]uint64
	Shed      [numClasses]uint64 // queue_full + eviction sheds
	Timeouts  [numClasses]uint64 // queue_timeout sheds
	Evictions uint64             // lower-class waiters displaced
}

// NewLimiter returns a ready gate.
func NewLimiter(cfg LimiterConfig) *Limiter {
	cfg.defaults()
	l := &Limiter{cfg: cfg}
	for i := range l.queues {
		l.queues[i] = list.New()
	}
	return l
}

// Acquire admits the request, blocks it in the class queue, or sheds it.
// On admission it returns a release func that MUST be called exactly
// once when the request finishes; the release hands the slot to the
// highest-priority waiter.
func (l *Limiter) Acquire(ctx context.Context, class Class) (func(), error) {
	if class < 0 || class >= numClasses {
		class = ClassMitigate
	}
	l.mu.Lock()
	if l.inflight < l.cfg.Limit {
		l.inflight++
		l.stats.Admitted[class]++
		l.mu.Unlock()
		return l.releaseFunc(), nil
	}
	// Over the limit: queue, evicting a lower-class waiter if full.
	if class != ClassJobs && l.cfg.MaxQueue > 0 && l.queuedLocked(ClassJobs+1) >= l.cfg.MaxQueue {
		if !l.evictLowerLocked(class) {
			l.stats.Shed[class]++
			l.mu.Unlock()
			return nil, shed("queue_full", class)
		}
	}
	w := &waiter{class: class, ch: make(chan func(), 1)}
	w.elem = l.queues[class].PushBack(w)
	var timeoutC <-chan time.Time // nil: wait until ctx ends
	if class != ClassJobs && l.cfg.QueueTimeout > 0 {
		timeoutC = l.cfg.After(l.cfg.QueueTimeout)
	}
	l.mu.Unlock()

	select {
	case release := <-w.ch:
		if release == nil { // evicted by a higher-class arrival
			return nil, shed("queue_full", class)
		}
		return release, nil
	case <-timeoutC:
		l.mu.Lock()
		if w.elem != nil {
			l.queues[class].Remove(w.elem)
			w.elem = nil
			l.stats.Timeouts[class]++
			l.mu.Unlock()
			return nil, shed("queue_timeout", class)
		}
		l.mu.Unlock()
		// Admission raced the timeout: the release func is already in
		// the buffered channel; honor the admission.
		release := <-w.ch
		if release == nil {
			return nil, shed("queue_full", class)
		}
		return release, nil
	case <-ctx.Done():
		l.mu.Lock()
		if w.elem != nil {
			l.queues[class].Remove(w.elem)
			w.elem = nil
			l.mu.Unlock()
			return nil, ctx.Err()
		}
		l.mu.Unlock()
		// Admitted concurrently with cancellation: take the slot and
		// release it immediately so the count stays balanced.
		if release := <-w.ch; release != nil {
			release()
		}
		return nil, ctx.Err()
	}
}

// shed is the typed refusal of a request the gate will not admit, with
// a one-second Retry-After hint.
func shed(reason string, class Class) *Error {
	return &Error{Reason: reason, Class: class, RetryAfter: time.Second}
}

// releaseFunc returns the once-only release closure for an admitted
// request.
func (l *Limiter) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			l.mu.Lock()
			l.inflight--
			l.admitWaitersLocked()
			l.mu.Unlock()
		})
	}
}

// queuedLocked counts the waiters of class from and above.
func (l *Limiter) queuedLocked(from Class) int {
	n := 0
	for _, q := range l.queues[from:] {
		n += q.Len()
	}
	return n
}

// evictLowerLocked displaces the newest waiter of the lowest
// interactive class strictly below the arriving class, making room in
// the bounded queue. Returns false when every queued interactive waiter
// already outranks-or-equals the arrival (the arrival is shed instead).
func (l *Limiter) evictLowerLocked(arriving Class) bool {
	for c := ClassJobs + 1; c < arriving; c++ {
		q := l.queues[c]
		if q.Len() == 0 {
			continue
		}
		w := q.Remove(q.Back()).(*waiter)
		w.elem = nil
		w.ch <- nil // typed shed, not admission
		l.stats.Evictions++
		l.stats.Shed[c]++
		return true
	}
	return false
}

// admitWaitersLocked hands freed slots to waiters, highest class first,
// FIFO within a class.
func (l *Limiter) admitWaitersLocked() {
	for l.inflight < l.cfg.Limit {
		var w *waiter
		for c := numClasses - 1; c >= 0; c-- {
			if q := l.queues[c]; q.Len() > 0 {
				w = q.Remove(q.Front()).(*waiter)
				break
			}
		}
		if w == nil {
			return
		}
		w.elem = nil
		l.inflight++
		l.stats.Admitted[w.class]++
		w.ch <- l.releaseFunc()
	}
}

// Stats snapshots the limiter counters.
func (l *Limiter) Stats() LimiterStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Inflight = l.inflight
	s.Queued = l.queuedLocked(ClassJobs)
	return s
}
