// Characterization example: learn a machine's Relative Basis Measurement
// Strength (RBMS) three ways and compare them — the workflow of the
// paper's Appendix A.
//
// On a 5-qubit machine all three techniques are affordable, which lets
// us validate the cheap ones against the exhaustive one:
//
//   - brute force: prepare each of the 32 basis states, measure, count
//     exact matches (O(2^n) circuit preparations);
//   - ESCT: prepare one uniform superposition and read the relative
//     frequencies (one circuit);
//   - AWCT: sliding 4-qubit windows with overlap 2, stitched together
//     (O(2^m) per window — the only technique that scales to 14+ qubits).
//
// Run with: go run ./examples/characterize
package main

import (
	"context"
	"fmt"
	"log"

	"biasmit/internal/bitstring"
	"biasmit/internal/core"
	"biasmit/internal/device"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	dev := device.IBMQX4()
	prof := &core.Profiler{
		Machine: core.NewMachine(dev),
		Layout:  []int{0, 1, 2, 3, 4},
	}

	brute, err := prof.BruteForceContext(ctx, 8000, 1)
	if err != nil {
		log.Fatal(err)
	}
	esct, err := prof.ESCTContext(ctx, 8000*32, 2)
	if err != nil {
		log.Fatal(err)
	}
	awct, err := prof.AWCTContext(ctx, 4, 2, 8000*8, 3)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("RBMS of %s (sum-normalized)\n\n", dev.Name)
	fmt.Println("state   brute    esct     awct")
	b, e, a := brute.NormalizeSum(), esct.NormalizeSum(), awct.NormalizeSum()
	for _, s := range bitstring.AllByHammingWeight(5) {
		fmt.Printf("%s   %.4f   %.4f   %.4f\n", s, b.Of(s), e.Of(s), a.Of(s))
	}

	mseESCT, err := esct.MSE(brute)
	if err != nil {
		log.Fatal(err)
	}
	mseAWCT, err := awct.MSE(brute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nESCT mean-squared error vs brute force: %.2e\n", mseESCT)
	fmt.Printf("AWCT mean-squared error vs brute force: %.2e\n", mseAWCT)

	corr, err := brute.HammingCorrelation()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncorrelation with Hamming weight: %.3f\n", corr)
	fmt.Printf("strongest state (AIM's inversion target): %v\n", brute.StrongestState())
	fmt.Println("\nOn ibmqx4 the bias is 'arbitrary' (weak weight correlation),")
	fmt.Println("which is exactly why AIM profiles the machine instead of")
	fmt.Println("assuming all-zeros is strongest.")
}
