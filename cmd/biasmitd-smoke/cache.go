package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"biasmit/internal/api"
)

// replayCanon strips only what legitimately differs per request — the
// envelope and the cache-metadata flags — and returns the rest as JSON.
// Unlike canonicalMitigate it keeps ElapsedMS: a result-cache hit
// replays the stored bytes verbatim, so even the original computation's
// elapsed time must come back unchanged. Matching it proves the second
// response is a replay, not a lucky deterministic re-execution.
func replayCanon(out *api.MitigateResponse) (string, error) {
	c := *out
	c.APIVersion, c.TraceID = "", ""
	c.CacheHit, c.Coalesced = false, false
	raw, err := json.Marshal(c)
	return string(raw), err
}

// cacheScenario is the result-cache round-trip of the CI serve job. It
// owns the daemon lifecycle:
//
//  1. boot biasmitd with the result cache at its defaults, run one AIM
//     request, and require the identical follow-up to come back as a
//     cache hit whose body — ElapsedMS included — replays the stored
//     bytes byte-for-byte;
//  2. force a re-characterization of the same machine and require the
//     next identical request to miss: the profile generation moved, so
//     every result that depended on it is stale;
//  3. fire one slow request and, once it is registered in flight, three
//     identical followers; require the three to coalesce onto the
//     leader's execution (coalesced flag + counter) with identical
//     bytes, the pipeline having run exactly once;
//  4. check the cache counters tell the whole story, then SIGTERM and
//     require a clean drain.
func cacheScenario(ctx context.Context, bin, dir string) error {
	d, err := startScratchDaemon(ctx, "cache", bin, dir,
		"-workers", "2",
		"-profile-shots", "256",
	)
	if err != nil {
		return err
	}
	defer d.kill()

	// Miss, then byte-identical replay.
	req := &api.MitigateRequest{Machine: "ibmqx4", Policy: "aim", Benchmark: "bv-4A", Shots: 2048, Seed: 7}
	first, err := d.cl.Mitigate(ctx, req)
	if err != nil {
		return fmt.Errorf("first aim run: %w", err)
	}
	if first.CacheHit || first.Coalesced {
		return fmt.Errorf("first aim run flagged cache_hit=%v coalesced=%v", first.CacheHit, first.Coalesced)
	}
	second, err := d.cl.Mitigate(ctx, req)
	if err != nil {
		return fmt.Errorf("second aim run: %w", err)
	}
	if !second.CacheHit {
		return fmt.Errorf("identical aim run should be a result-cache hit")
	}
	firstCanon, err := replayCanon(first)
	if err != nil {
		return err
	}
	secondCanon, err := replayCanon(second)
	if err != nil {
		return err
	}
	if firstCanon != secondCanon {
		return fmt.Errorf("cache hit is not a byte replay:\nfirst:  %s\nsecond: %s", firstCanon, secondCanon)
	}
	if second.ElapsedMS != first.ElapsedMS {
		return fmt.Errorf("cache hit elapsed_ms %v, want the original %v replayed", second.ElapsedMS, first.ElapsedMS)
	}

	// Re-characterizing moves the profile generation; the dependent
	// entry must die with it.
	if _, err := d.cl.Characterize(ctx, &api.CharacterizeRequest{
		Machine: "ibmqx4", Method: "brute", Qubits: 5, Force: true,
	}); err != nil {
		return fmt.Errorf("forced re-characterization: %w", err)
	}
	third, err := d.cl.Mitigate(ctx, req)
	if err != nil {
		return fmt.Errorf("post-characterize aim run: %w", err)
	}
	if third.CacheHit {
		return fmt.Errorf("aim run after forced re-characterization still served from the result cache")
	}

	// Coalescing: register a slow leader, then pile three identical
	// requests onto it. The miss counter increments at registration —
	// before the computation finishes — so polling it removes the race
	// between launching the leader and launching the followers.
	// The leader runs trajectories on all 14 qubits of the machine for
	// ~0.7s on 2 vCPUs: ghz-14 touches every qubit, so the backend cannot
	// compact its register. bv-4A there touches 5 and finishes in
	// milliseconds, as does any run the exact engine takes.
	burst := &api.MitigateRequest{Machine: "ibmq-melbourne", Policy: "baseline", Benchmark: "ghz-14", Shots: 4096, Seed: 42}
	missesBefore, err := cacheMetric(ctx, d, "biasmitd_result_cache_misses_total")
	if err != nil {
		return err
	}
	type burstResult struct {
		resp *api.MitigateResponse
		err  error
	}
	results := make(chan burstResult, 4)
	mitigate := func() {
		resp, err := d.cl.Mitigate(ctx, burst)
		results <- burstResult{resp, err}
	}
	go mitigate()
	registered := time.Now().Add(15 * time.Second)
	for {
		misses, err := cacheMetric(ctx, d, "biasmitd_result_cache_misses_total")
		if err != nil {
			return err
		}
		if misses > missesBefore {
			break
		}
		if time.Now().After(registered) {
			return fmt.Errorf("burst leader never registered a result-cache miss")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mitigate()
		}()
	}
	wg.Wait()

	var leaders, coalesced int
	var canons []string
	for i := 0; i < 4; i++ {
		r := <-results
		if r.err != nil {
			return fmt.Errorf("burst request: %w", r.err)
		}
		switch {
		case r.resp.Coalesced:
			coalesced++
		case !r.resp.CacheHit:
			leaders++
		default:
			return fmt.Errorf("burst request came back cache_hit — a follower arrived after the leader finished")
		}
		canon, err := replayCanon(r.resp)
		if err != nil {
			return err
		}
		canons = append(canons, canon)
	}
	if leaders != 1 || coalesced != 3 {
		return fmt.Errorf("burst split %d leaders / %d coalesced, want 1 / 3", leaders, coalesced)
	}
	for _, canon := range canons[1:] {
		if canon != canons[0] {
			return fmt.Errorf("coalesced responses diverged:\n%s\nvs\n%s", canons[0], canon)
		}
	}

	// The counters tell the whole story: three misses (first aim, the
	// invalidated re-run, the burst leader), one hit, one invalidation,
	// three coalesced waiters — and the pipeline ran once per miss.
	if err := expectMetrics(ctx, d.cl,
		"biasmitd_result_cache_enabled 1",
		"biasmitd_result_cache_hits_total 1",
		"biasmitd_result_cache_misses_total 3",
		"biasmitd_result_cache_invalidations_total 1",
		"biasmitd_result_cache_coalesced_total 3",
	); err != nil {
		return err
	}

	return d.stopGracefully()
}

// cacheMetric scrapes one result-cache sample off /metrics.
func cacheMetric(ctx context.Context, d *daemon, name string) (float64, error) {
	text, err := d.cl.Metrics(ctx)
	if err != nil {
		return 0, fmt.Errorf("metrics: %w", err)
	}
	return metricValue(text, name)
}
