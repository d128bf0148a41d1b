// Command biasmitd-smoke is the CI black-box prober for biasmitd,
// replacing the curl+grep scripts that used to live in the workflow: it
// boots the daemon binary named by -daemon and drives it through the
// typed client (internal/client), so the smoke test exercises the same
// wire contract (internal/api) that real Go callers use, and a contract
// break fails to compile instead of failing to grep. Every scenario owns
// its daemon: it boots a fresh one, logs it into its scratch directory,
// and ends by stopping it with SIGTERM and requiring a clean drain.
//
// Seven scenarios, selected with -scenario:
//
//	serve    health, an AIM profile-cache miss, a result-cache replay of
//	         the identical request, a reseeded profile-cache hit, a typed
//	         over-budget rejection, and the /metrics counters that prove
//	         it all happened. Owns the daemon (-daemon, -data-dir as
//	         scratch), booted at its defaults, result cache included.
//	cache    result-cache round-trip. Owns the daemon (-daemon,
//	         -data-dir as scratch): an identical request pair must
//	         replay byte-identical stored bytes (ElapsedMS included),
//	         a forced re-characterization must invalidate them, and a
//	         concurrent burst of identical requests must coalesce onto
//	         exactly one execution — all visible on /metrics.
//	breaker  two injected outages open the machine's breaker, the third
//	         request is rejected up front with breaker_open + a
//	         Retry-After cooldown, /healthz degrades honestly, and after
//	         the cooldown the half-open probe recovers the machine. Owns
//	         the daemon (-daemon, -data-dir as scratch), booted with
//	         -chaos-fail-first 2 -retry-attempts 1 -breaker-threshold 2.
//	recover  crash-recovery round-trip (-daemon, -data-dir): it boots a
//	         daemon on -data-dir, learns profiles, records an AIM run,
//	         SIGKILLs the daemon mid-characterization, corrupts the WAL
//	         tail the way a torn write would, restarts from the same
//	         -data-dir, and asserts the profiles serve warm — original
//	         learned_at, zero re-characterizations, byte-identical
//	         mitigation output — before stopping the second daemon
//	         gracefully.
//	overload admission-control round-trip. Owns the daemon (-daemon,
//	         -data-dir as scratch): boots it with the shedding admission
//	         gate and a gray-slow chaos backend, storms the mitigate
//	         endpoint at several times capacity, and asserts excess load
//	         sheds with typed overloaded 503s + Retry-After within the
//	         queue timeout, every answer is the AIM policy it asked for,
//	         mid-storm async jobs all complete once the storm passes,
//	         and a post-storm AIM request is served as AIM.
//	trace    observability round-trip. Owns the daemon (-daemon,
//	         -data-dir as scratch): boots it with a gray-slow chaos
//	         backend, runs one slow request under a client-minted trace
//	         ID, and asserts the same ID ties together the response
//	         envelope, the /debug/traces span breakdown (summing to the
//	         measured e2e latency within 10%), the slow-request
//	         exemplars on /metrics, and the structured stderr log line.
//	jobs     async-queue crash round-trip. Also owns the daemon
//	         (-daemon, -jobs-dir): submits jobs through POST /v1/jobs,
//	         requires a job's result byte-identical to the synchronous
//	         endpoint, cancels a queued job, SIGKILLs the daemon with a
//	         job mid-run, restarts from the same -jobs-dir, and asserts
//	         every job reaches exactly one terminal state — the
//	         interrupted job re-queued and deterministically re-executed.
//
// Exits 0 when every assertion holds, 1 with a message otherwise.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/backend"
	"biasmit/internal/client"
)

func main() {
	scenario := flag.String("scenario", "serve", "round-trip to run: serve, cache, breaker, recover, jobs, trace, or overload")
	daemonBin := flag.String("daemon", "", "path to the biasmitd binary the scenario boots")
	dataDir := flag.String("data-dir", "", "scratch directory the scenario logs its daemon into (every scenario but jobs); recover also boots the daemon on it as its -data-dir")
	jobsDir := flag.String("jobs-dir", "", "durable job-queue directory handed to the daemon (jobs scenario)")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall deadline")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var err error
	switch *scenario {
	case "serve":
		err = serveScenario(ctx, *daemonBin, *dataDir)
	case "cache":
		err = cacheScenario(ctx, *daemonBin, *dataDir)
	case "breaker":
		err = breakerScenario(ctx, *daemonBin, *dataDir)
	case "recover":
		err = recoverScenario(ctx, *daemonBin, *dataDir)
	case "jobs":
		err = jobsScenario(ctx, *daemonBin, *jobsDir)
	case "trace":
		err = traceScenario(ctx, *daemonBin, *dataDir)
	case "overload":
		err = overloadScenario(ctx, *daemonBin, *dataDir)
	default:
		err = fmt.Errorf("unknown scenario %q", *scenario)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "smoke: FAIL (%s): %v\n", *scenario, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "smoke: ok (%s)\n", *scenario)
}

// serveScenario is the happy-path round-trip of the CI serve job. It
// boots a fresh daemon at its defaults — result cache included — so the
// /metrics counts it asserts are exact.
func serveScenario(ctx context.Context, bin, dir string) error {
	d, err := startScratchDaemon(ctx, "serve", bin, dir, "-workers", "2", "-profile-shots", "256")
	if err != nil {
		return err
	}
	defer d.kill()
	cl := d.cl

	h, err := cl.Healthz(ctx)
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if h.Status != "ok" {
		return fmt.Errorf("healthz status %q, want ok", h.Status)
	}

	// First AIM run: characterizes fresh (profile-cache miss) and lands
	// in the result cache.
	req := &api.MitigateRequest{
		Machine: "ibmqx4", Policy: "aim", Benchmark: "bv-4A", Shots: 2048, Seed: 7,
	}
	first, err := cl.Mitigate(ctx, req)
	if err != nil {
		return fmt.Errorf("first aim run: %w", err)
	}
	if first.Profile == nil || first.Profile.Cached {
		return fmt.Errorf("first aim run should characterize fresh, got profile %+v", first.Profile)
	}
	if first.CacheHit {
		return fmt.Errorf("first aim run flagged cache_hit")
	}

	// The identical request replays the stored bytes — including the
	// first run's Profile.Cached=false — with cache_hit set.
	second, err := cl.Mitigate(ctx, req)
	if err != nil {
		return fmt.Errorf("second aim run: %w", err)
	}
	if !second.CacheHit {
		return fmt.Errorf("identical aim run should hit the result cache, got %+v", second)
	}
	if second.Profile == nil || second.Profile.Cached {
		return fmt.Errorf("result-cache hit should replay the original profile metadata, got %+v", second.Profile)
	}

	// A different seed misses the result cache but reuses the profile.
	reseeded := *req
	reseeded.Seed = 8
	third, err := cl.Mitigate(ctx, &reseeded)
	if err != nil {
		return fmt.Errorf("reseeded aim run: %w", err)
	}
	if third.CacheHit {
		return fmt.Errorf("reseeded aim run flagged cache_hit")
	}
	if third.Profile == nil || !third.Profile.Cached {
		return fmt.Errorf("reseeded aim run should hit the profile cache, got profile %+v", third.Profile)
	}

	// An over-budget request must be the typed bad_budget rejection.
	_, err = cl.Mitigate(ctx, &api.MitigateRequest{
		Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A",
		Shots: backend.MaxShots + 1,
	})
	var ae *api.Error
	if !errors.As(err, &ae) {
		return fmt.Errorf("over-budget run: got %v (%T), want *api.Error", err, err)
	}
	if ae.Code != api.CodeBadBudget || ae.Status != 400 {
		return fmt.Errorf("over-budget run: code=%q status=%d, want bad_budget/400", ae.Code, ae.Status)
	}

	if err := expectMetrics(ctx, cl,
		"biasmitd_profile_cache_misses_total 1",
		"biasmitd_profile_cache_hits_total 1",
		"biasmitd_result_cache_enabled 1",
		"biasmitd_result_cache_hits_total 1",
		"biasmitd_result_cache_misses_total 2",
		`biasmitd_requests_total{route="/v1/mitigate",code="200"} 3`,
		`biasmitd_requests_total{route="/v1/mitigate",code="400"} 1`,
	); err != nil {
		return err
	}
	return d.stopGracefully()
}

// breakerScenario is the fault-injection round-trip of the CI chaos job.
// Its daemon fails its first two backend runs and opens a machine's
// breaker after two failed runs, each attempted once.
func breakerScenario(ctx context.Context, bin, dir string) error {
	d, err := startScratchDaemon(ctx, "breaker", bin, dir,
		"-workers", "2",
		"-chaos-fail-first", "2",
		"-retry-attempts", "1",
		"-breaker-threshold", "2",
		"-breaker-cooldown", "2s",
	)
	if err != nil {
		return err
	}
	defer d.kill()
	cl := d.cl

	req := &api.MitigateRequest{
		Machine: "ibmqx2", Policy: "baseline", Benchmark: "bv:01", Shots: 512, Seed: 1,
	}

	// Two injected outages: upstream_transient each, reaching the
	// breaker threshold.
	for i := 1; i <= 2; i++ {
		_, err := cl.Mitigate(ctx, req)
		var ae *api.Error
		if !errors.As(err, &ae) {
			return fmt.Errorf("outage %d: got %v (%T), want *api.Error", i, err, err)
		}
		if ae.Code != api.CodeUpstreamTransient || ae.Status != 503 {
			return fmt.Errorf("outage %d: code=%q status=%d, want upstream_transient/503", i, ae.Code, ae.Status)
		}
	}

	// Open breaker: rejected up front, typed, with a cooldown.
	_, err = cl.Mitigate(ctx, req)
	var ae *api.Error
	if !errors.As(err, &ae) {
		return fmt.Errorf("open breaker: got %v (%T), want *api.Error", err, err)
	}
	if ae.Code != api.CodeBreakerOpen || ae.Status != 503 {
		return fmt.Errorf("open breaker: code=%q status=%d, want breaker_open/503", ae.Code, ae.Status)
	}
	if ae.RetryAfter <= 0 {
		return fmt.Errorf("open breaker: no Retry-After cooldown on %v", ae)
	}

	// Health is honest while the machine is dark.
	h, err := cl.Healthz(ctx)
	if err != nil {
		return fmt.Errorf("healthz while open: %w", err)
	}
	if h.Status != "degraded" {
		return fmt.Errorf("healthz status %q while breaker open, want degraded", h.Status)
	}

	// Sleep out the advertised cooldown; the half-open probe then
	// succeeds (the fault budget is spent) and the machine serves again.
	select {
	case <-time.After(ae.RetryAfter + 500*time.Millisecond):
	case <-ctx.Done():
		return ctx.Err()
	}
	resp, err := cl.Mitigate(ctx, req)
	if err != nil {
		return fmt.Errorf("post-cooldown run: %w", err)
	}
	if resp.Policy != "baseline" {
		return fmt.Errorf("post-cooldown run: policy %q, want baseline", resp.Policy)
	}
	h, err = cl.Healthz(ctx)
	if err != nil {
		return fmt.Errorf("healthz after recovery: %w", err)
	}
	if h.Status != "ok" {
		return fmt.Errorf("healthz status %q after recovery, want ok", h.Status)
	}

	if err := expectMetrics(ctx, cl,
		"biasmitd_breaker_rejections_total 1",
		`biasmitd_breaker_transitions_total{machine="ibmqx2",to="open"} 1`,
		`biasmitd_breaker_transitions_total{machine="ibmqx2",to="closed"} 1`,
		`biasmitd_breaker_state{machine="ibmqx2"} 0`,
	); err != nil {
		return err
	}
	return d.stopGracefully()
}

// expectMetrics scrapes /metrics and requires every line to be present.
func expectMetrics(ctx context.Context, cl *client.Client, lines ...string) error {
	text, err := cl.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, want := range lines {
		if !strings.Contains(text, want) {
			return fmt.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	return nil
}
