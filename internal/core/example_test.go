package core_test

import (
	"context"
	"fmt"

	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/kernels"
	"biasmit/internal/metrics"
)

// readoutMachine isolates the effect the paper studies: only the
// classical readout channel corrupts outcomes, so the examples below are
// exactly reproducible.
func readoutMachine(dev *device.Device) *core.Machine {
	m := core.NewMachine(dev)
	m.Opt = backend.Options{NoGateNoise: true, NoDecay: true}
	return m
}

// The basic Invert-and-Measure flow: measure the vulnerable all-ones
// state directly and through a full inversion.
func ExampleJob_RunWithInversion() {
	m := readoutMachine(device.IBMQX2())
	target := bitstring.MustParse("11111")
	job, err := core.NewJobWithLayout(kernels.BasisPrep(target), m, []int{0, 1, 2, 3, 4})
	if err != nil {
		fmt.Println(err)
		return
	}
	direct, _ := job.Baseline(50000, 7)
	inverted, _ := job.RunWithInversion(bitstring.Ones(5), 50000, 7)

	pDirect := float64(direct.Get(target)) / 50000
	pInverted := float64(inverted.Get(target)) / 50000
	fmt.Printf("direct measurement recovers 11111 less often: %v\n", pDirect < pInverted)
	// Output:
	// direct measurement recovers 11111 less often: true
}

// SIM needs no knowledge of the state being measured: it splits trials
// across four static inversion strings and merges.
func ExampleSIM4Context() {
	m := readoutMachine(device.IBMQX2())
	target := bitstring.MustParse("11111")
	job, err := core.NewJobWithLayout(kernels.BasisPrep(target), m, []int{0, 1, 2, 3, 4})
	if err != nil {
		fmt.Println(err)
		return
	}
	baseline, _ := job.Baseline(40000, 3)
	sim, _ := core.SIM4Context(context.Background(), job, 40000, 4)

	basePST := metrics.PST(baseline.Dist(), target)
	simPST := metrics.PST(sim.Merged.Dist(), target)
	fmt.Printf("modes: %d\n", len(sim.Strings))
	fmt.Printf("SIM beats the baseline on a weak state: %v\n", simPST > basePST)
	// Output:
	// modes: 4
	// SIM beats the baseline on a weak state: true
}

// AIM profiles the machine, shortlists outputs with canary trials, and
// measures each candidate mapped onto the strongest state.
func ExampleAIMContext() {
	m := readoutMachine(device.IBMQX4())
	target := bitstring.MustParse("11011")
	job, err := core.NewJobWithLayout(kernels.BasisPrep(target), m, []int{0, 1, 2, 3, 4})
	if err != nil {
		fmt.Println(err)
		return
	}
	rbms, _ := job.Profiler().BruteForceContext(context.Background(), 2000, 5)
	res, _ := core.AIMContext(context.Background(), job, rbms, core.AIMConfig{}, 20000, 6)

	fmt.Printf("trial budget preserved: %v\n", res.Merged.Total() == 20000)
	fmt.Printf("true output among candidates: %v\n", hasCandidate(res, target))
	// Output:
	// trial budget preserved: true
	// true output among candidates: true
}

func hasCandidate(res *core.AIMResult, target bitstring.Bits) bool {
	for _, c := range res.Candidates {
		if c.Output == target {
			return true
		}
	}
	return false
}
