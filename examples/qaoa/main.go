// QAOA example: solve a max-cut instance on the simulated 14-qubit
// melbourne machine and rescue a weak answer with Adaptive
// Invert-and-Measure.
//
// This reproduces the paper's §3.3/§5.4 scenario: the optimal partition
// of graph D (101011) has high Hamming weight, so the baseline machine
// reads it badly and stronger incorrect answers mask it. AIM profiles
// the machine, shortlists likely answers with canary trials, and maps
// them onto the machine's strongest state before measuring.
//
// Run with: go run ./examples/qaoa
package main

import (
	"context"
	"fmt"
	"log"

	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/kernels"
	"biasmit/internal/maxcut"
	"biasmit/internal/metrics"
)

func main() {
	log.SetFlags(0)

	// Graph D from the paper's Table 2: six nodes, optimum 101011.
	pg := maxcut.Table2Graphs()[3]
	best, partitions := pg.Graph.Solve()
	fmt.Printf("graph %s: %d nodes, %d edges, max cut %.0f at %v\n",
		pg.Graph.Name, pg.Graph.N, len(pg.Graph.Edges), best, partitions)

	// Tune QAOA angles on the ideal simulator (the classical outer loop),
	// then freeze the program, as the paper does.
	bench := kernels.QAOA(pg.Graph.Name, pg, 1)

	machine := core.NewMachine(device.IBMQMelbourne())
	job, err := core.NewJob(bench.Circuit, machine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placed on %s qubits %v with %d routing swaps\n",
		machine.Device.Name, job.Plan.InitialLayout, job.Plan.SwapCount)

	const shots = 16000
	baseline, err := job.Baseline(shots, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Profile the output register's measurement strength with the
	// windowed technique (brute force would need 2^6 preparations; AWCT
	// needs O(2^4)).
	rbms, err := job.Profiler().AWCTContext(context.Background(), 4, 2, 16000, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine's strongest 6-bit state: %v\n", rbms.StrongestState())

	aim, err := core.AIMContext(context.Background(), job, rbms, core.AIMConfig{}, shots, 3)
	if err != nil {
		log.Fatal(err)
	}

	show := func(policy string, d dist.Dist) {
		fmt.Printf("%-9s PST %5.2f%%  IST %.3f  rank of correct answer %d\n",
			policy,
			100*metrics.PSTEquiv(d, bench.Correct...),
			metrics.IST(d, bench.Correct...),
			metrics.ROCA(d, bench.Correct...))
	}
	show("baseline", baseline.Dist())
	show("AIM", aim.Merged.Dist())

	fmt.Println("\nAIM canary shortlist (likelihood = frequency / strength):")
	for _, c := range aim.Candidates {
		cut := pg.Graph.CutValue(c.Output)
		fmt.Printf("  %v  likelihood %6.3f  cut value %.0f\n", c.Output, c.Likelihood, cut)
	}
}
