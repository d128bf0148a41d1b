package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"biasmit/internal/api"
)

// stormStats is what the concurrent load loop observed, under one lock.
type stormStats struct {
	mu          sync.Mutex
	successes   int
	degraded    int // successes served at another policy than requested
	sheds       int
	shedRetry   int // sheds that carried a Retry-After cooldown
	maxShedWait time.Duration
	unexpected  []string
}

func (st *stormStats) record(resp *api.MitigateResponse, err error, waited time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err == nil {
		st.successes++
		if resp.ServedPolicy != resp.Policy {
			st.degraded++
		}
		return
	}
	var ae *api.Error
	if errors.As(err, &ae) && ae.Code == api.CodeOverloaded {
		st.sheds++
		if ae.RetryAfter > 0 {
			st.shedRetry++
		}
		if waited > st.maxShedWait {
			st.maxShedWait = waited
		}
		return
	}
	if len(st.unexpected) < 5 {
		st.unexpected = append(st.unexpected, err.Error())
	}
}

// overloadScenario is the overload-control round-trip of the CI chaos
// job. It owns the daemon lifecycle:
//
//  1. boot biasmitd with its admission gate in shedding mode (2 slots,
//     -queue-timeout 50ms) plus a gray-slow chaos backend (every run
//     succeeds slowly) so a modest client fleet saturates it;
//  2. pre-warm the AIM profile, then storm the mitigate endpoint at
//     several times capacity for a few seconds while async jobs are
//     queued mid-storm. Require: excess requests shed with the typed
//     overloaded 503 + Retry-After within the queue timeout (shed, not
//     queued behind stuck work), goodput continues, and every answer
//     is the AIM policy it asked for (ServedPolicy equals Policy);
//  3. stop the load and require recovery: a post-storm AIM request
//     served as AIM, /healthz ok, every mid-storm job reaching done —
//     job executions wait out the storm at the gate, never shed, zero
//     jobs lost;
//  4. check the gate counters on /metrics, then SIGTERM and require a
//     clean drain.
func overloadScenario(ctx context.Context, bin, dir string) error {
	d, err := startScratchDaemon(ctx, "overload", bin, dir,
		// The post-storm probe below reuses the pre-warm request
		// verbatim; a result-cache hit would replay the pre-storm bytes
		// without running. This scenario measures admission control, so
		// the cache stays off.
		"-result-cache=false",
		"-workers", "1",
		"-max-jobs", "2",
		"-job-workers", "1",
		"-profile-shots", "128",
		"-queue-timeout", "50ms",
		"-chaos-gray-slow-rate", "1",
		"-chaos-gray-slow", "150ms",
	)
	if err != nil {
		return err
	}
	defer d.kill()

	// Pre-warm the AIM profile so the storm measures admission control,
	// not a one-off characterization.
	aimReq := &api.MitigateRequest{Machine: "ibmqx4", Policy: "aim", Benchmark: "bv-4A", Shots: 512, Seed: 7}
	if _, err := d.cl.Mitigate(ctx, aimReq); err != nil {
		return fmt.Errorf("pre-warm aim run: %w", err)
	}

	// The storm: 12 clients against 2 slots of gray-slow capacity.
	st := new(stormStats)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for n := int64(0); ; n++ {
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				default:
				}
				req := *aimReq
				req.Seed = seed*1000 + n
				start := time.Now()
				resp, err := d.cl.Mitigate(ctx, &req)
				st.record(resp, err, time.Since(start))
			}
		}(int64(i + 1))
	}

	// Mid-storm, queue async jobs. Their executions are the lowest
	// admission class, so they are admitted last — and are never shed,
	// so they must survive the storm without any retry.
	time.Sleep(500 * time.Millisecond)
	jobReq := &api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 512, Seed: 99}
	var jobIDs []string
	for i := 0; i < 4; i++ {
		r := *jobReq
		r.Seed += int64(i)
		resp, err := d.cl.SubmitJob(ctx, &api.JobSubmitRequest{
			Type: api.JobTypeMitigate, Mitigate: &r,
		})
		if err != nil {
			return fmt.Errorf("submitting mid-storm job %d: %w", i, err)
		}
		jobIDs = append(jobIDs, resp.Job.ID)
	}
	time.Sleep(3500 * time.Millisecond)
	close(stop)
	wg.Wait()

	st.mu.Lock() // the workers are done; hold the lock across the checks
	defer st.mu.Unlock()
	if len(st.unexpected) > 0 {
		return fmt.Errorf("storm produced non-overload errors: %s", strings.Join(st.unexpected, "; "))
	}
	if st.successes == 0 {
		return fmt.Errorf("storm produced zero goodput (%d sheds)", st.sheds)
	}
	if st.sheds == 0 {
		return fmt.Errorf("storm at ~6x capacity shed nothing (%d successes) — the limiter is not gating", st.successes)
	}
	if st.shedRetry == 0 {
		return fmt.Errorf("none of %d sheds carried a Retry-After cooldown", st.sheds)
	}
	// Shed, not queued: a shed response must come back around the queue
	// timeout, far under the multi-second backlog it refused to join.
	if st.maxShedWait > 3*time.Second {
		return fmt.Errorf("slowest shed took %v — requests queued behind stuck work instead of shedding", st.maxShedWait)
	}
	// An answer is the policy asked for or a typed shed, never a
	// weaker policy.
	if st.degraded > 0 {
		return fmt.Errorf("%d of %d successes were served at another policy than requested",
			st.degraded, st.successes)
	}

	// Recovery: with the load gone, an AIM request is served as AIM.
	resp, err := d.cl.Mitigate(ctx, aimReq)
	if err != nil {
		return fmt.Errorf("post-storm aim run: %w", err)
	}
	if resp.ServedPolicy != "aim" {
		return fmt.Errorf("post-storm aim run served %q, want aim", resp.ServedPolicy)
	}

	// Zero lost jobs: every mid-storm job reaches done.
	for _, id := range jobIDs {
		final, err := d.cl.WaitJob(ctx, id)
		if err != nil {
			return fmt.Errorf("waiting out mid-storm job %s: %w", id, err)
		}
		if final.Job.State != api.JobStateDone {
			return fmt.Errorf("mid-storm job %s ended %s (error %+v) — lost to the storm",
				id, final.Job.State, final.Job.Error)
		}
	}

	h, err := d.cl.Healthz(ctx)
	if err != nil {
		return fmt.Errorf("healthz after recovery: %w", err)
	}
	if h.Status != "ok" {
		return fmt.Errorf("healthz after recovery: status=%q, want ok", h.Status)
	}

	text, err := d.cl.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, want := range []string{
		"biasmitd_overload_limiter_enabled 1",
		`biasmitd_jobs_depth{state="queued"} 0`,
		`biasmitd_jobs_depth{state="running"} 0`,
	} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	name := `biasmitd_overload_queue_timeouts_total{class="mitigate"}`
	v, err := metricValue(text, name)
	if err != nil {
		return err
	}
	if v <= 0 {
		return fmt.Errorf("metric %s = %g, want > 0 after the storm", name, v)
	}

	return d.stopGracefully()
}

// metricValue pulls one sample's value out of the Prometheus text
// exposition.
func metricValue(text, name string) (float64, error) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || !strings.HasPrefix(rest, " ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0, fmt.Errorf("metric %s has unparseable value %q", name, rest)
		}
		return v, nil
	}
	return 0, fmt.Errorf("metric %s absent from /metrics", name)
}
