// GHZ example: show that state-dependent measurement bias affects
// entangled superpositions, not just classical basis states — the
// paper's §3.2 (Fig 6) observation — and that SIM symmetrizes it.
//
// An ideal GHZ-5 measurement returns 00000 and 11111 with probability
// 0.5 each. On the melbourne model the all-ones branch decays and
// misreads, skewing the outcome heavily toward zeros. SIM's split
// measurement modes restore the balance.
//
// Run with: go run ./examples/ghz
package main

import (
	"context"
	"fmt"
	"log"

	"biasmit/internal/bitstring"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/kernels"
)

func main() {
	log.SetFlags(0)

	machine := core.NewMachine(device.IBMQMelbourne())
	job, err := core.NewJob(kernels.GHZ(5), machine)
	if err != nil {
		log.Fatal(err)
	}

	const shots = 32000
	baseline, err := job.Baseline(shots, 1)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := core.SIM4Context(context.Background(), job, shots, 2)
	if err != nil {
		log.Fatal(err)
	}

	zeros, ones := bitstring.Zeros(5), bitstring.Ones(5)
	show := func(policy string, d dist.Dist) {
		p0, p1 := d.Prob(zeros), d.Prob(ones)
		skew := 0.0
		if p1 > 0 {
			skew = p0 / p1
		}
		fmt.Printf("%-9s P(00000)=%.3f  P(11111)=%.3f  skew %.2fx\n", policy, p0, p1, skew)
	}
	fmt.Println("GHZ-5 on ibmq-melbourne (ideal: 0.500 / 0.500, skew 1.00x)")
	show("baseline", baseline.Dist())
	show("SIM", sim.Merged.Dist())

	fmt.Println("\nbaseline leakage by Hamming weight (ideal: zero outside 0 and 5):")
	d := baseline.Dist()
	var byWeight [6]float64
	for _, b := range bitstring.All(5) {
		byWeight[b.HammingWeight()] += d.Prob(b)
	}
	for w, p := range byWeight {
		fmt.Printf("  weight %d: %.3f\n", w, p)
	}
}
