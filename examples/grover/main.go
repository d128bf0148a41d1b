// Grover example: a single-answer search workload where the answer's bit
// pattern decides how hard it is to read out — and how to combine
// physical (Invert-and-Measure) and classical (confusion-matrix)
// mitigation.
//
// Grover-3 amplifies the marked state to ≈94.5% after two iterations on
// an ideal machine, so almost all remaining loss on a NISQ model comes
// from gates and readout. Marking the all-ones state puts the answer in
// the weakest readout state; the example compares:
//
//	baseline → SIM → SIM + tensored matrix correction
//
// Run with: go run ./examples/grover
package main

import (
	"context"
	"fmt"
	"log"

	"biasmit/internal/bitstring"
	"biasmit/internal/core"
	"biasmit/internal/correct"
	"biasmit/internal/device"
	"biasmit/internal/kernels"
	"biasmit/internal/metrics"
)

func main() {
	log.SetFlags(0)

	marked := bitstring.MustParse("111")
	bench := kernels.Grover("grover-3", marked, 2)
	fmt.Printf("Grover-3 searching for %v (ideal success 94.5%%)\n", marked)

	machine := core.NewMachine(device.IBMQX4())
	job, err := core.NewJob(bench.Circuit, machine)
	if err != nil {
		log.Fatal(err)
	}
	oneQ, twoQ, _ := job.Plan.Physical.GateCounts()
	fmt.Printf("on %s: %d 1q + %d 2q gates after transpilation, %d swaps\n\n",
		machine.Device.Name, oneQ, twoQ, job.Plan.SwapCount)

	const shots = 16000
	baseline, err := job.Baseline(shots, 1)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := core.SIM4Context(context.Background(), job, shots, 2)
	if err != nil {
		log.Fatal(err)
	}
	cal, err := correct.LearnTensored(machine, job.Plan.FinalLayout, 8192, 3)
	if err != nil {
		log.Fatal(err)
	}
	simCorrected, err := cal.Apply(sim.Merged)
	if err != nil {
		log.Fatal(err)
	}

	basePST := metrics.PST(baseline.Dist(), marked)
	lo, hi := baseline.WilsonInterval(marked, 1.96)
	fmt.Printf("baseline        PST %5.1f%%  (95%% CI %.1f%%-%.1f%%)\n", 100*basePST, 100*lo, 100*hi)

	simPST := metrics.PST(sim.Merged.Dist(), marked)
	lo, hi = sim.Merged.WilsonInterval(marked, 1.96)
	fmt.Printf("SIM             PST %5.1f%%  (95%% CI %.1f%%-%.1f%%)\n", 100*simPST, 100*lo, 100*hi)

	fmt.Printf("SIM + matrix    PST %5.1f%%\n", 100*metrics.PST(simCorrected, marked))
}
