package main

import (
	"fmt"
	"os"
	"sort"

	"biasmit/internal/api"
)

// layers computes the per-layer split. Pass A (untraced) gives the
// /metrics and MemStats deltas and the job latencies; pass B (traced)
// gives the daemon's spans; replays gives the in-process timing.
//
// The server, rescache, profilestore, core.sample_*, metrics,
// experiments and transpile times are contributions per sync mitigate
// request: summed over the timed phase and divided by the number of
// sync mitigates, so together with server.self_ms they add up to the
// mean client-observed mitigate latency.
func (b *bench) layers(pa, pb *pass, replays map[string]*replayed) error {
	var reqs []*api.MitigateRequest
	for _, outs := range pb.timed {
		for _, o := range outs {
			if o.Mitigate != nil {
				reqs = append(reqs, o.Op.Mitigate)
			}
		}
	}
	build, place, err := buildAndPlaceMS(reqs)
	if err != nil {
		return err
	}

	// Sync mitigates: daemon spans, plus the replayed build and placement.
	span := map[string]float64{}
	var n int
	var latSum, coveredSum, selfSum, buildSum, placeSum float64
	for _, outs := range pb.timed {
		for _, o := range outs {
			if o.Op.Kind != opMitigate {
				continue
			}
			tr, ok := find(pb.traces, o.TraceID, "/v1/mitigate")
			if !ok {
				return fmt.Errorf("trace %s of a timed mitigate was not read from the ring", o.TraceID)
			}
			req := o.Op.Mitigate
			bms := build[req.Benchmark]
			pms := 0.0
			if !o.Mitigate.CacheHit && !o.Mitigate.Coalesced {
				pms = place[[2]string{req.Machine, req.Benchmark}] // placement runs only on a computed answer
			}
			for _, sp := range tr.Spans {
				name := sp.Name
				if name == "sample" {
					name += "_" + sp.Tags["policy"]
				}
				span[name] += sp.DurationMS
			}
			n++
			latSum += o.ms()
			coveredSum += spanTotal(tr.Spans) + bms + pms
			selfSum += selfTime(o.ms(), tr.Spans, bms, pms)
			buildSum += bms
			placeSum += pms
		}
	}
	if n == 0 {
		return fmt.Errorf("no timed mitigates in the traced pass")
	}
	per := func(sum float64) float64 { return sum / float64(n) }
	b.set("server.self_ms", per(selfSum), "ms", n)
	b.set("server.decode_ms", per(span["decode"]), "ms", n)
	b.set("server.admit_ms", per(span["queue_wait"]), "ms", n)
	b.set("server.serialize_ms", per(span["serialize"]), "ms", n)
	b.set("experiments.build_ms", per(buildSum), "ms", n)
	b.set("rescache.cache_ms", per(span["cache"]), "ms", n)
	b.set("profilestore.characterize_ms", per(span["characterize"]), "ms", n)
	for _, pol := range policies {
		b.set("core.sample_"+pol+"_ms", per(span["sample_"+pol]), "ms", n)
	}
	b.set("metrics.correct_ms", per(span["correct"]), "ms", n)
	b.set("transpile.place_ms", per(placeSum), "ms", n)
	b.set("bench.span_coverage", coveredSum/latSum, "ratio", n)
	b.set("bench.trace_overhead", pa.wall.Seconds()/pb.wall.Seconds(), "ratio", 2)

	// Async jobs: their execution traces carry queue and batch waits.
	var queueW, batchW []float64
	for _, outs := range pb.timed {
		for _, o := range outs {
			if o.Op.Kind != opJob {
				continue
			}
			tr, ok := find(pb.traces, o.TraceID, "job:mitigate")
			if !ok {
				return fmt.Errorf("trace %s of a timed job was not read from the ring", o.TraceID)
			}
			var q, bw float64
			for _, sp := range tr.Spans {
				switch sp.Name {
				case "queue_wait":
					q += sp.DurationMS
				case "batch_wait":
					bw += sp.DurationMS
				}
			}
			queueW, batchW = append(queueW, q), append(batchW, bw)
		}
	}
	b.set("jobs.queue_wait_ms", mean(queueW), "ms", len(queueW))
	b.set("jobs.batch_wait_ms", mean(batchW), "ms", len(batchW))
	b.clientMetrics(pa)

	// Counter deltas across pass A's timed phase.
	d := func(series string) float64 { return pa.after[series] - pa.before[series] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	rcHits := d("biasmitd_result_cache_hits_total")
	rcAll := rcHits + d("biasmitd_result_cache_misses_total") + d("biasmitd_result_cache_coalesced_total")
	b.set("rescache.hit_ratio", ratio(rcHits, rcAll), "ratio", int(rcAll))
	b.set("rescache.invalidations", d("biasmitd_result_cache_invalidations_total"), "count", 1)
	pfHits := d("biasmitd_profile_cache_hits_total")
	pfAll := pfHits + d("biasmitd_profile_cache_misses_total") + d("biasmitd_profile_cache_joined_total")
	b.set("profilestore.hit_ratio", ratio(pfHits, pfAll), "ratio", int(pfAll))
	b.set("profilestore.characterizations", d("biasmitd_profile_characterizations_total"), "count", 1)
	batches := d("biasmitd_job_batches_total")
	b.set("jobs.batch_size", ratio(d("biasmitd_job_batched_jobs_total"), batches), "count", int(batches))
	attempted := float64(pa.attempted())
	b.set("biasmitd.allocs_per_req", (pa.memAfter.mallocs-pa.memBefore.mallocs)/attempted, "count", int(attempted))
	b.set("biasmitd.alloc_kb_per_req", (pa.memAfter.totalAlloc-pa.memBefore.totalAlloc)/1024/attempted, "KB", int(attempted))
	b.set("biasmitd.gc_cycles", pa.memAfter.numGC-pa.memBefore.numGC, "count", 1)

	// In-process replay of the timed phase's distinct computations.
	keys := make([]string, 0, len(replays))
	for k := range replays {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var coreSelf, runMS []float64
	var runs, shots int
	var swaps []float64
	for _, k := range keys {
		r := replays[k]
		coreSelf = append(coreSelf, r.policyMS-r.backendMS)
		runMS = append(runMS, r.backendMS)
		runs += r.runs
		shots += r.shots
		swaps = append(swaps, float64(r.swaps))
	}
	nr := len(keys)
	b.set("core.self_ms", mean(coreSelf), "ms", nr)
	b.set("backend.run_ms", mean(runMS), "ms", nr)
	b.set("backend.runs_per_req", ratio(float64(runs), float64(nr)), "count", nr)
	b.set("backend.shots_per_req", ratio(float64(shots), float64(nr)), "count", nr)
	b.set("backend.ns_per_shot", ratio(mean(runMS)*float64(nr)*1e6, float64(shots)), "ns", shots)
	b.set("transpile.swaps", mean(swaps), "count", nr)
	profMS, err := profileMS(b.ctx, b.wl.Profiles)
	if err != nil {
		return err
	}
	b.set("core.profile_ms", profMS, "ms", len(b.wl.Profiles))

	// Every timed request of a sync workload is a distinct computation,
	// so the replay must account for exactly the backend runs the daemon
	// counted.
	daemonRuns := d("biasmitd_backend_runs_total")
	fmt.Fprintf(os.Stderr, "e2ebench: backend runs: replay %d over %d requests, daemon %.0f over %d requests\n",
		runs, nr, daemonRuns, pa.attempted())
	if len(b.wl.Timed) == 1 && (nr != pa.attempted() || float64(runs) != daemonRuns) {
		return fmt.Errorf("replay ran %d backend runs for %d requests; the daemon counted %.0f for %d",
			runs, nr, daemonRuns, pa.attempted())
	}
	return nil
}
