// Command mitigate runs one of the paper's benchmarks under the
// baseline, SIM, and AIM policies on a simulated machine and compares
// the reliability metrics — the end-to-end workflow of the paper.
//
// Usage:
//
//	mitigate -machine ibmqx4 -bench bv-4A -shots 32000
//	mitigate -machine ibmq-melbourne -bench qaoa-6 -shots 32000 -modes 2
//
// With -async -server the same comparison runs remotely through a
// biasmitd daemon's job queue: one job per policy is submitted to
// POST /v1/jobs (seeded exactly like the local run), awaited, and the
// same metrics table is printed from the jobs' results.
//
//	mitigate -async -server 127.0.0.1:8642 -machine ibmqx4 -bench bv-4A -shots 32000
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"biasmit/internal/backend"
	"biasmit/internal/chaos"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/experiments"
	"biasmit/internal/metrics"
	"biasmit/internal/persist"
	"biasmit/internal/report"
	"biasmit/internal/resilient"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mitigate: ")

	machineName := flag.String("machine", "ibmqx4", "machine model: ibmqx2, ibmqx4, ibmq-melbourne")
	benchName := flag.String("bench", "bv-4A", "benchmark: bv-4A, bv-4B, bv-6, bv-7, qaoa-4A, qaoa-4B, qaoa-6, qaoa-7, bv:<key>, prep:<bits>, or ghz-<n>")
	shots := flag.Int("shots", 32000, "trials per policy")
	seed := flag.Int64("seed", 1, "random seed")
	modes := flag.Int("modes", 4, "SIM inversion-string count (1, 2, 4, or 8)")
	canary := flag.Float64("canary", 0.25, "AIM canary fraction")
	k := flag.Int("k", 4, "AIM adaptive string count")
	profileShots := flag.Int("profile-shots", 4096, "RBMS profiling trials per state/window")
	profileFile := flag.String("profile", "", "load a saved RBMS profile (from characterize -out) instead of profiling")
	workers := flag.Int("workers", 0, "parallel workers (0 = all CPUs, 1 = sequential; results are identical either way)")
	timeout := flag.Duration("timeout", 0, "abort after this long (0 = no limit)")
	async := flag.Bool("async", false, "run through a biasmitd daemon's async job queue instead of locally (needs -server)")
	serverAddr := flag.String("server", "", "biasmitd address for -async, e.g. 127.0.0.1:8642")
	apiKey := flag.String("api-key", "", "X-API-Key tenant identity for -async submissions")
	chaosPlan := chaos.Flags(flag.CommandLine)
	retry := resilient.Flags(flag.CommandLine)
	flag.Parse()
	if err := chaosPlan.Validate(); err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *async {
		if *serverAddr == "" {
			log.Fatal("-async needs -server <addr>")
		}
		if err := runAsync(ctx, asyncConfig{
			server: *serverAddr, apiKey: *apiKey,
			machine: *machineName, bench: *benchName,
			shots: *shots, seed: *seed, modes: *modes, canary: *canary, k: *k,
		}); err != nil {
			log.Fatal(err)
		}
		return
	}

	dev, ok := device.ByName(*machineName)
	if !ok {
		log.Fatalf("unknown machine %q", *machineName)
	}
	bench, err := experiments.BenchmarkByName(*benchName)
	if err != nil {
		log.Fatal(err)
	}

	m := core.NewMachine(dev)
	m.Workers = *workers
	m.Run = resilient.New(chaosPlan.Wrap(backend.RunContext), *retry).Run
	job, err := core.NewJob(bench.Circuit, m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %s: %d qubits, layout %v, %d swaps, %d trials/policy\n\n",
		bench.Name, dev.Name, bench.Width(), job.Plan.InitialLayout, job.Plan.SwapCount, *shots)

	base, err := job.BaselineContext(ctx, *shots, *seed+1)
	if err != nil {
		log.Fatal(err)
	}
	strings, err := core.StandardInversionStrings(bench.Width(), *modes)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := core.SIMContext(ctx, job, strings, *shots, *seed+2)
	if err != nil {
		log.Fatal(err)
	}

	var rbms core.RBMS
	if *profileFile != "" {
		f, err := os.Open(*profileFile)
		if err != nil {
			log.Fatal(err)
		}
		var meta persist.RBMSMeta
		rbms, meta, err = persist.LoadRBMS(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if meta.Machine != "" && meta.Machine != dev.Name {
			log.Fatalf("profile was learned on %s, not %s", meta.Machine, dev.Name)
		}
		if rbms.Width != bench.Width() {
			log.Fatalf("profile covers %d qubits but %s outputs %d bits", rbms.Width, bench.Name, bench.Width())
		}
		fmt.Printf("loaded %s RBMS profile from %s\n", meta.Method, *profileFile)
	} else {
		prof := job.Profiler()
		if bench.Width() <= 5 {
			rbms, err = prof.BruteForceContext(ctx, *profileShots, *seed+3)
		} else {
			rbms, err = prof.AWCTContext(ctx, 4, 2, *profileShots*4, *seed+3)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	aim, err := core.AIMContext(ctx, job, rbms, core.AIMConfig{CanaryFraction: *canary, K: *k}, *shots, *seed+4)
	if err != nil {
		log.Fatal(err)
	}

	row := func(name string, counts *dist.Counts) []string {
		d := counts.Dist()
		lo, hi := counts.WilsonInterval(bench.Correct[0], 1.96)
		return []string{
			name,
			report.Pct(metrics.PSTEquiv(d, bench.Correct...)),
			fmt.Sprintf("[%s, %s]", report.Pct(lo), report.Pct(hi)),
			report.F(metrics.IST(d, bench.Correct...)),
			fmt.Sprint(metrics.ROCA(d, bench.Correct...)),
		}
	}
	fmt.Fprint(os.Stdout, report.Table(
		[]string{"policy", "PST", "95% CI", "IST", "ROCA"},
		[][]string{
			row("baseline", base),
			row(fmt.Sprintf("SIM (%d modes)", *modes), sim.Merged),
			row("AIM", aim.Merged),
		},
	))
	fmt.Printf("\ncorrect output(s): %v\n", bench.Correct)
	fmt.Printf("machine's strongest state: %v; AIM candidates:\n", aim.Strongest)
	for _, c := range aim.Candidates {
		fmt.Printf("  output %v  likelihood %.3f  inversion %v\n", c.Output, c.Likelihood, c.Inversion)
	}
}
