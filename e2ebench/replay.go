package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/experiments"
	"biasmit/internal/kernels"
	"biasmit/internal/metrics"
)

// replayed is one mitigate request re-run in-process through the
// public pipeline the daemon calls: experiments.BenchmarkByName,
// core.NewJob, then the policy call. Machine.Run wraps
// backend.RunContext with a timer, so backend time and run counts are
// exact for the request.
type replayed struct {
	counts *dist.Counts
	bench  kernels.Benchmark
	swaps  int
	// policyMS is the policy call's wall time; backendMS the part of it
	// spent inside backend.RunContext.
	policyMS  float64
	backendMS float64
	runs      int
	shots     int
}

// profileKey names a characterized profile the AIM replay reuses.
type profileKey struct {
	machine string
	width   int
}

func msSince(t time.Time) float64 { return time.Since(t).Seconds() * 1e3 }

// replayOne re-runs req with Workers = 1, so the policy call runs its
// groups one after another and backend time nests inside policy time.
// AIM uses the RBMS the daemon returned during set-up.
func replayOne(ctx context.Context, req *api.MitigateRequest, profiles map[profileKey]core.RBMS) (*replayed, error) {
	dev, ok := device.ByName(req.Machine)
	if !ok {
		return nil, fmt.Errorf("unknown machine %q", req.Machine)
	}
	r := &replayed{}
	bench, err := experiments.BenchmarkByName(req.Benchmark)
	if err != nil {
		return nil, err
	}
	r.bench = bench
	m := core.NewMachine(dev)
	m.Workers = 1
	m.Run = func(ctx context.Context, c *circuit.Circuit, dev *device.Device, opt backend.Options) (*dist.Counts, error) {
		t := time.Now()
		counts, err := backend.RunContext(ctx, c, dev, opt)
		r.backendMS += msSince(t)
		r.runs++
		r.shots += opt.Shots
		return counts, err
	}
	job, err := core.NewJob(bench.Circuit, m)
	if err != nil {
		return nil, err
	}
	r.swaps = job.Plan.SwapCount
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	t := time.Now()
	switch req.Policy {
	case "baseline":
		r.counts, err = job.BaselineContext(ctx, req.Shots, seed)
	case "sim":
		modes := req.Modes
		if modes == 0 {
			modes = 4
		}
		var invs []bitstring.Bits
		if invs, err = core.StandardInversionStrings(job.Width(), modes); err == nil {
			var res *core.SIMResult
			if res, err = core.SIMContext(ctx, job, invs, req.Shots, seed); err == nil {
				r.counts = res.Merged
			}
		}
	case "aim":
		rbms, ok := profiles[profileKey{req.Machine, job.Width()}]
		if !ok {
			return nil, fmt.Errorf("no set-up profile for %s width %d", req.Machine, job.Width())
		}
		var res *core.AIMResult
		cfg := core.AIMConfig{CanaryFraction: req.CanaryFraction, K: req.K}
		if res, err = core.AIMContext(ctx, job, rbms, cfg, req.Shots, seed); err == nil {
			r.counts = res.Merged
		}
	default:
		err = fmt.Errorf("unknown policy %q", req.Policy)
	}
	r.policyMS = msSince(t)
	if err != nil {
		return nil, fmt.Errorf("replaying %s: %w", reqKey(req), err)
	}
	return r, nil
}

// replayAll replays reqs on two goroutines (the host has two vCPUs) and
// returns the results in input order.
func replayAll(ctx context.Context, reqs []*api.MitigateRequest, profiles map[profileKey]core.RBMS) ([]*replayed, error) {
	out := make([]*replayed, len(reqs))
	errs := make([]error, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = replayOne(ctx, reqs[i], profiles)
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// matchReplay checks a daemon response against the in-process replay of
// the same request: every listed outcome count, the distinct-outcome
// count, that the listed rows are the top of the histogram, and the
// reliability metrics, all exactly.
func matchReplay(resp *api.MitigateResponse, r *replayed) error {
	if resp.DistinctOutcomes != len(r.counts.Outcomes()) {
		return fmt.Errorf("distinct outcomes %d, replay %d", resp.DistinctOutcomes, len(r.counts.Outcomes()))
	}
	listed := map[bitstring.Bits]bool{}
	minListed := -1
	for _, row := range resp.Outcomes {
		b, err := bitstring.Parse(row.Outcome)
		if err != nil {
			return err
		}
		if got := r.counts.Get(b); got != row.Count {
			return fmt.Errorf("outcome %s: count %d, replay %d", row.Outcome, row.Count, got)
		}
		listed[b] = true
		if minListed < 0 || row.Count < minListed {
			minListed = row.Count
		}
	}
	for _, b := range r.counts.Outcomes() {
		if !listed[b] && r.counts.Get(b) > minListed {
			return fmt.Errorf("unlisted outcome %s (count %d) beats a listed one", b, r.counts.Get(b))
		}
	}
	if len(r.bench.Correct) > 0 {
		if resp.Metrics == nil {
			return fmt.Errorf("no metrics for a benchmark with a known answer")
		}
		d := r.counts.Dist()
		want := api.PolicyMetrics{
			PST:  metrics.PSTEquiv(d, r.bench.Correct...),
			IST:  metrics.IST(d, r.bench.Correct...),
			ROCA: metrics.ROCA(d, r.bench.Correct...),
		}
		if *resp.Metrics != want {
			return fmt.Errorf("metrics %+v, replay %+v", *resp.Metrics, want)
		}
	}
	return nil
}

// medianCallMS times fn n times and returns the median wall time.
func medianCallMS(n int, fn func() error) (float64, error) {
	ms := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, msSince(t))
	}
	return median(ms), nil
}

// buildAndPlaceMS times experiments.BenchmarkByName per benchmark and
// core.NewJob per (machine, benchmark), median of five calls each.
func buildAndPlaceMS(reqs []*api.MitigateRequest) (build map[string]float64, place map[[2]string]float64, err error) {
	build = map[string]float64{}
	place = map[[2]string]float64{}
	for _, r := range reqs {
		k := [2]string{r.Machine, r.Benchmark}
		if _, done := place[k]; done {
			continue
		}
		dev, ok := device.ByName(r.Machine)
		if !ok {
			return nil, nil, fmt.Errorf("unknown machine %q", r.Machine)
		}
		var bench kernels.Benchmark
		ms, err := medianCallMS(5, func() (err error) {
			bench, err = experiments.BenchmarkByName(r.Benchmark)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		if _, done := build[r.Benchmark]; !done {
			build[r.Benchmark] = ms
		}
		m := core.NewMachine(dev)
		if place[k], err = medianCallMS(5, func() error {
			_, err := core.NewJob(bench.Circuit, m)
			return err
		}); err != nil {
			return nil, nil, err
		}
	}
	return build, place, nil
}

// profileMS replays the set-up characterizations with the daemon's
// default budget (-profile-shots 2048; AWCT windows of 4 overlapping by
// 2) and returns the mean wall time per profile.
func profileMS(ctx context.Context, profiles []api.CharacterizeRequest) (float64, error) {
	var ms []float64
	for i, p := range profiles {
		dev, ok := device.ByName(p.Machine)
		if !ok {
			return 0, fmt.Errorf("unknown machine %q", p.Machine)
		}
		layout := make([]int, p.Qubits)
		for q := range layout {
			layout[q] = q
		}
		prof := &core.Profiler{Machine: core.NewMachine(dev), Layout: layout}
		t := time.Now()
		var err error
		if p.Qubits <= 5 {
			_, err = prof.BruteForceContext(ctx, 2048, int64(i+1))
		} else {
			_, err = prof.AWCTContext(ctx, 4, 2, 2048, int64(i+1))
		}
		if err != nil {
			return 0, err
		}
		ms = append(ms, msSince(t))
	}
	return mean(ms), nil
}
