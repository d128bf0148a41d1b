// Quickstart: run a Bernstein-Vazirani kernel on a simulated IBM machine
// and recover reliability with Static Invert-and-Measure.
//
// This is the smallest end-to-end use of the library:
//
//  1. pick a machine model (ibmqx4, the paper's most biased device);
//  2. build a kernel circuit (BV with an all-ones key — the worst case
//     for state-dependent measurement bias);
//  3. place it on the machine (variability-aware, as the paper's
//     baseline does);
//  4. run the baseline policy and SIM, and compare PST.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"biasmit/internal/bitstring"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/kernels"
	"biasmit/internal/metrics"
)

func main() {
	log.SetFlags(0)

	// The secret key 1111 makes the expected output 11111 (key plus
	// ancilla) — the state most vulnerable to measurement error.
	bench := kernels.BV("bv-4B", bitstring.MustParse("1111"))

	machine := core.NewMachine(device.IBMQX4())
	job, err := core.NewJob(bench.Circuit, machine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("running %s on %s (physical qubits %v)\n",
		bench.Name, machine.Device.Name, job.Plan.InitialLayout)

	const shots = 16000
	baseline, err := job.Baseline(shots, 1)
	if err != nil {
		log.Fatal(err)
	}

	// SIM splits the same trial budget across four inversion strings
	// (none, all, even bits, odd bits) and merges the corrected outputs.
	sim, err := core.SIM4Context(context.Background(), job, shots, 2)
	if err != nil {
		log.Fatal(err)
	}

	basePST := metrics.PST(baseline.Dist(), bench.Correct[0])
	simPST := metrics.PST(sim.Merged.Dist(), bench.Correct[0])
	fmt.Printf("baseline PST: %.1f%%\n", 100*basePST)
	fmt.Printf("SIM PST:      %.1f%% (%.2fx)\n", 100*simPST, simPST/basePST)
	for i, s := range sim.Strings {
		d := sim.PerMode[i].Dist()
		fmt.Printf("  mode %v: PST %.1f%%\n", s, 100*metrics.PST(d, bench.Correct[0]))
	}
}
