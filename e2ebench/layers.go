package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/client"
)

// tracePoller reads the daemon's trace ring (GET /debug/traces) often
// enough that no trace is overwritten before it is read: every 100 ms a
// short page, and at once a full ring whenever a page holds no trace
// seen before (the ring may have moved past the last read).
type tracePoller struct {
	c     *client.Client
	stopc chan struct{}
	done  chan struct{}

	mu     sync.Mutex
	traces map[string][]api.TraceEntry // by trace ID; one ID can span routes
	seen   map[string]bool             // trace ID + route + start
	err    error
}

const (
	tracePage = 64
	traceRing = 256 // the daemon's default -trace-buffer
)

func pollTraces(c *client.Client) *tracePoller {
	p := &tracePoller{c: c, stopc: make(chan struct{}), done: make(chan struct{}),
		traces: map[string][]api.TraceEntry{}, seen: map[string]bool{}}
	go func() {
		defer close(p.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stopc:
				p.read(traceRing) // whatever finished after the last tick
				return
			case <-t.C:
				if !p.read(tracePage) {
					p.read(traceRing)
				}
			}
		}
	}()
	return p
}

// read fetches the newest limit traces and reports whether the page
// overlapped what was already read.
func (p *tracePoller) read(limit int) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := p.c.Traces(ctx, limit, false)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		if p.err == nil {
			p.err = fmt.Errorf("reading /debug/traces: %w", err)
		}
		return true
	}
	overlap := len(resp.Traces) < limit
	for _, tr := range resp.Traces {
		k := tr.TraceID + "|" + tr.Route + "|" + tr.Start.String()
		if p.seen[k] {
			overlap = true
			continue
		}
		p.seen[k] = true
		p.traces[tr.TraceID] = append(p.traces[tr.TraceID], tr)
	}
	return overlap
}

// stop ends polling after one last full read.
func (p *tracePoller) stop() (map[string][]api.TraceEntry, error) {
	close(p.stopc)
	<-p.done
	return p.traces, p.err
}

// find returns the trace for id on route.
func find(traces map[string][]api.TraceEntry, id, route string) (api.TraceEntry, bool) {
	for _, tr := range traces[id] {
		if tr.Route == route {
			return tr, true
		}
	}
	return api.TraceEntry{}, false
}

// counters is one /metrics scrape: series (name plus labels) to value.
type counters map[string]float64

func scrape(ctx context.Context, c *client.Client) (counters, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	out := counters{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// memStats is the part of runtime.MemStats the per-layer split uses,
// read from the daemon's pprof listener.
type memStats struct {
	mallocs, totalAlloc, numGC float64
}

func readMemStats(ctx context.Context, addr string) (memStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return memStats{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return memStats{}, fmt.Errorf("reading MemStats: %w", err)
	}
	defer resp.Body.Close()
	fields := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			fields[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return memStats{}, err
	}
	ms := memStats{mallocs: fields["Mallocs"], totalAlloc: fields["TotalAlloc"], numGC: fields["NumGC"]}
	if ms.mallocs == 0 || ms.totalAlloc == 0 {
		return memStats{}, fmt.Errorf("no MemStats in the heap profile")
	}
	return ms, nil
}
