package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/client"
)

// traceScenario is the observability round-trip of the CI chaos job. It
// owns the daemon (-daemon, -data-dir as scratch), boots it with a
// gray-slow chaos backend (every backend call succeeds, slowly) and a
// low slow-request threshold, then proves one slow request is fully
// explainable end to end:
//
//  1. mint a trace ID client-side and run a baseline mitigation under
//     it; the response envelope must echo the same ID;
//  2. GET /debug/traces must hold that trace with a per-stage span
//     breakdown whose durations sum to within 10% of the e2e latency
//     the client measured;
//  3. the request must be retained as a slow exemplar: on
//     /debug/traces?slow=1, as a biasmitd_slow_request_seconds sample
//     naming the trace ID on /metrics, and in the per-stage histograms;
//  4. the daemon's stderr must carry the structured log line with the
//     trace ID and the span breakdown;
//  5. SIGTERM and require a clean drain.
func traceScenario(ctx context.Context, bin, dataDir string) error {
	args := []string{
		"-workers", "2",
		"-profile-shots", "256",
		// Every backend call sleeps 250-500ms: slow enough to dwarf the
		// serving overhead (the 10% span-sum tolerance below), fast
		// enough for CI.
		"-chaos-gray-slow-rate", "1",
		"-chaos-gray-slow", "500ms",
		"-slow-request", "100ms",
	}
	d, err := startScratchDaemon(ctx, "trace", bin, dataDir, args...)
	if err != nil {
		return err
	}
	defer d.kill()

	// One slow request under a client-minted trace ID.
	traceCtx, traceID := client.WithTraceID(ctx, "")
	req := &api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 1024, Seed: 5}
	started := time.Now()
	resp, err := d.cl.Mitigate(traceCtx, req)
	if err != nil {
		return fmt.Errorf("gray-slow mitigate: %w", err)
	}
	e2e := time.Since(started)
	if resp.TraceID != traceID {
		return fmt.Errorf("response trace_id %q, want the client-minted %q", resp.TraceID, traceID)
	}

	// The trace is on /debug/traces with a span breakdown that accounts
	// for the latency the client saw.
	entry, err := findTrace(ctx, d.cl, traceID, false)
	if err != nil {
		return err
	}
	if entry.Route != "/v1/mitigate" || entry.Status != 200 {
		return fmt.Errorf("trace %s recorded route=%q status=%d, want /v1/mitigate 200", traceID, entry.Route, entry.Status)
	}
	var spanSum float64
	var sampled bool
	for _, sp := range entry.Spans {
		spanSum += sp.DurationMS
		if sp.Name == "sample" && sp.Tags["policy"] == "baseline" {
			sampled = true
		}
	}
	if !sampled {
		return fmt.Errorf("trace %s has no sample span tagged policy=baseline; spans %+v", traceID, entry.Spans)
	}
	e2eMS := float64(e2e) / float64(time.Millisecond)
	if diff := spanSum - e2eMS; diff < -0.1*e2eMS || diff > 0.1*e2eMS {
		return fmt.Errorf("trace %s spans sum to %.1fms, not within 10%% of the measured %.1fms e2e", traceID, spanSum, e2eMS)
	}

	// Slower than -slow-request, so it is a retained exemplar too.
	slow, err := d.cl.Traces(ctx, 0, true)
	if err != nil {
		return fmt.Errorf("debug/traces?slow=1: %w", err)
	}
	if slow.SlowThresholdMS != 100 {
		return fmt.Errorf("slow threshold %dms, want the configured 100ms", slow.SlowThresholdMS)
	}
	if _, err := pickTrace(slow.Traces, traceID); err != nil {
		return fmt.Errorf("slow exemplars: %w", err)
	}
	if err := expectMetrics(ctx, d.cl,
		"biasmitd_slow_request_threshold_seconds 0.1",
		fmt.Sprintf(`biasmitd_slow_request_seconds{trace_id=%q,route="/v1/mitigate"}`, traceID),
		`biasmitd_stage_duration_seconds_count{stage="sample"} 1`,
		`biasmitd_stage_duration_seconds_count{stage="serialize"}`,
	); err != nil {
		return err
	}

	// The structured log line ties the same story to stderr: trace ID,
	// route, and the span breakdown in one greppable JSON record.
	logData, _ := os.ReadFile(d.logPath)
	for _, want := range []string{
		fmt.Sprintf(`"trace_id":"%s"`, traceID),
		`"route":"/v1/mitigate"`,
		`"name":"sample"`,
	} {
		if !strings.Contains(string(logData), want) {
			return fmt.Errorf("daemon log missing %s; log:\n%s", want, logData)
		}
	}

	return d.stopGracefully()
}

// findTrace reads GET /debug/traces and returns the entry for id.
func findTrace(ctx context.Context, cl *client.Client, id string, slow bool) (*api.TraceEntry, error) {
	resp, err := cl.Traces(ctx, 0, slow)
	if err != nil {
		return nil, fmt.Errorf("debug/traces: %w", err)
	}
	return pickTrace(resp.Traces, id)
}

func pickTrace(traces []api.TraceEntry, id string) (*api.TraceEntry, error) {
	for i := range traces {
		if traces[i].TraceID == id {
			return &traces[i], nil
		}
	}
	return nil, fmt.Errorf("trace %s not in the %d retained traces", id, len(traces))
}
