package overload

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Watchdog detects the failure mode breakers cannot see: work that is
// neither dead nor finishing. Each watched unit (in biasmitd, an
// executing async job) registers a Task and calls Done when it ends; a
// task still registered longer than the stall threshold gets a full
// goroutine dump in the log (the evidence a human needs to find the
// deadlock) and its cancel func invoked once, so the stuck work is
// cancelled and — for jobs — requeued.
type Watchdog struct {
	interval time.Duration
	stall    time.Duration
	logf     func(format string, args ...any)
	now      func() time.Time

	mu     sync.Mutex
	tasks  map[*Task]struct{}
	stalls uint64
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// Task is one watched unit of work.
type Task struct {
	w      *Watchdog
	name   string
	cancel func()
	start  time.Time
	fired  bool // a stall already dumped+cancelled; guarded by w.mu
}

// WatchdogStats is a snapshot for /metrics.
type WatchdogStats struct {
	Tasks  int
	Stalls uint64
}

// NewWatchdog builds a watchdog that sweeps every interval and declares
// a task stalled once it has been registered longer than stall. logf
// may be nil to discard. A nil *Watchdog disables watching — Register
// and Task.Done no-op — so wiring stays optional.
func NewWatchdog(interval, stall time.Duration, logf func(string, ...any)) *Watchdog {
	if interval <= 0 {
		interval = time.Second
	}
	if stall <= 0 {
		stall = 30 * time.Second
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Watchdog{
		interval: interval,
		stall:    stall,
		logf:     logf,
		now:      time.Now,
		tasks:    make(map[*Task]struct{}),
	}
}

// SetNow injects a test clock. Must be called before Start.
func (w *Watchdog) SetNow(now func() time.Time) {
	if w != nil && now != nil {
		w.now = now
	}
}

// Start launches the sweep loop. Safe on a nil watchdog.
func (w *Watchdog) Start() {
	if w == nil {
		return
	}
	w.mu.Lock()
	if w.stopCh != nil {
		w.mu.Unlock()
		return
	}
	w.stopCh = make(chan struct{})
	stop := w.stopCh
	w.mu.Unlock()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(w.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				w.Sweep()
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the sweep loop and waits for it to exit.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.mu.Lock()
	stop := w.stopCh
	w.stopCh = nil
	w.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	w.wg.Wait()
}

// Register adds a watched unit of work, timed from now. cancel is
// invoked once if the task stalls; it must be safe to call from the
// sweep goroutine.
func (w *Watchdog) Register(name string, cancel func()) *Task {
	if w == nil {
		return nil
	}
	if cancel == nil {
		cancel = func() {}
	}
	t := &Task{w: w, name: name, cancel: cancel, start: w.now()}
	w.mu.Lock()
	w.tasks[t] = struct{}{}
	w.mu.Unlock()
	return t
}

// Sweep runs one stall check; exported so tests (and a debug endpoint)
// can force a check without waiting out the ticker.
func (w *Watchdog) Sweep() {
	if w == nil {
		return
	}
	now := w.now()
	var stalled []*Task
	w.mu.Lock()
	for t := range w.tasks {
		if !t.fired && now.Sub(t.start) > w.stall {
			t.fired = true
			w.stalls++
			stalled = append(stalled, t)
		}
	}
	w.mu.Unlock()

	for _, t := range stalled {
		w.logf("watchdog: task %q stalled (running for %s); goroutine dump follows\n%s",
			t.name, now.Sub(t.start), goroutineDump())
		t.cancel()
	}
}

// Stats snapshots the watchdog. Safe on a nil watchdog.
func (w *Watchdog) Stats() WatchdogStats {
	if w == nil {
		return WatchdogStats{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return WatchdogStats{Tasks: len(w.tasks), Stalls: w.stalls}
}

// goroutineDump captures every goroutine's stack, growing the buffer
// until the dump fits (capped at 8 MiB).
func goroutineDump() string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		if len(buf) >= 8<<20 {
			return fmt.Sprintf("%s\n... dump truncated at %d bytes", buf[:len(buf)-64], len(buf))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// Done unregisters the task.
func (t *Task) Done() {
	if t == nil {
		return
	}
	t.w.mu.Lock()
	delete(t.w.tasks, t)
	t.w.mu.Unlock()
}
