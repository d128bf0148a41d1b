package overload

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (l *logCapture) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logCapture) joined() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

func TestWatchdogFiresOnStall(t *testing.T) {
	clock := newFakeClock()
	logs := &logCapture{}
	w := NewWatchdog(time.Second, 10*time.Second, logs.logf)
	w.SetNow(clock.Now)

	cancelled := make(chan struct{}, 4)
	task := w.Register("worker-1", func() { cancelled <- struct{}{} })

	// Freshly registered: no fire.
	w.Sweep()
	if len(cancelled) != 0 {
		t.Fatal("watchdog fired on a fresh task")
	}

	// Past the stall threshold: dump + cancel, exactly once.
	clock.Advance(11 * time.Second)
	w.Sweep()
	w.Sweep()
	if got := len(cancelled); got != 1 {
		t.Fatalf("cancel fired %d times, want exactly 1", got)
	}
	if s := w.Stats(); s.Stalls != 1 || s.Tasks != 1 {
		t.Fatalf("stats = %+v, want 1 stall / 1 task", s)
	}
	dump := logs.joined()
	if !strings.Contains(dump, `task "worker-1" stalled`) {
		t.Fatalf("log missing stall line:\n%s", dump)
	}
	if !strings.Contains(dump, "goroutine ") {
		t.Fatalf("log missing goroutine dump:\n%s", dump)
	}

	task.Done()
	if s := w.Stats(); s.Tasks != 0 {
		t.Fatalf("tasks after Done = %d, want 0", s.Tasks)
	}
}

func TestWatchdogStartStop(t *testing.T) {
	w := NewWatchdog(time.Millisecond, time.Hour, nil)
	w.Start()
	w.Start() // idempotent
	time.Sleep(5 * time.Millisecond)
	w.Stop()
	w.Stop() // idempotent
}

func TestWatchdogNil(t *testing.T) {
	var w *Watchdog
	w.Start()
	task := w.Register("x", nil)
	task.Done()
	w.Sweep()
	w.Stop()
	if s := w.Stats(); s.Tasks != 0 {
		t.Fatalf("nil watchdog stats = %+v", s)
	}
}
