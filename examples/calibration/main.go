// Calibration-suite example: everything an operator would run against a
// fresh machine before trusting it with workloads.
//
//  1. Fit each qubit's T1 from decay data (tomography.FitT1).
//  2. Learn the RBMS measurement-strength profile (ESCT) and find the
//     strongest state AIM will target.
//  3. Map readout crosstalk (the source of ibmqx4-style arbitrary bias).
//  4. Persist the profile to disk for later AIM runs.
//
// Run with: go run ./examples/calibration
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"biasmit/internal/backend"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/persist"
	"biasmit/internal/tomography"
)

func main() {
	log.SetFlags(0)

	dev := device.IBMQX4()
	fmt.Printf("calibrating %s (%d qubits)\n\n", dev.Name, dev.NumQubits)

	// T1 fits need idle windows, so enable the schedule-aware decay model.
	decayMachine := core.NewMachine(dev)
	decayMachine.Opt = backend.Options{NoGateNoise: true, ScheduleAwareDecay: true}
	fmt.Println("T1 relaxation fits (model value in parentheses):")
	for q := 0; q < dev.NumQubits; q++ {
		trueT1 := dev.Qubits[q].T1
		fit, err := tomography.FitT1(decayMachine, q,
			[]float64{trueT1 / 6, trueT1 / 3, trueT1 / 2}, 6000, int64(100+q))
		if err != nil {
			log.Fatalf("qubit %d: %v", q, err)
		}
		fmt.Printf("  q%d: %5.1f µs (%.1f)\n", q, fit.T1, trueT1)
	}

	machine := core.NewMachine(dev)
	prof := &core.Profiler{Machine: machine, Layout: []int{0, 1, 2, 3, 4}}

	rbms, err := prof.ESCTContext(context.Background(), 64000, 200)
	if err != nil {
		log.Fatal(err)
	}
	corr, err := rbms.HammingCorrelation()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRBMS (ESCT, 64k trials): strongest state %v, Hamming correlation %.2f\n",
		rbms.StrongestState(), corr)

	crosstalk, err := prof.Crosstalk(16000, 300)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nreadout crosstalk above 1.5%:")
	for _, p := range crosstalk.SignificantPairs(0.015) {
		fmt.Printf("  q%d excited -> q%d flips %+.1f%% more often\n",
			p.Trigger, p.Target, 100*p.Excess)
	}

	path := filepath.Join(os.TempDir(), "ibmqx4-profile.json")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	rec := persist.ProfileRecord{Machine: dev.Name, Layout: prof.Layout, Method: "esct", Width: rbms.Width, Strength: rbms.Strength}
	if err := persist.SaveProfile(f, rec); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprofile saved to %s (load it for future AIM runs)\n", path)
}
