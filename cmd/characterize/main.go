// Command characterize learns a machine's Relative Basis Measurement
// Strength (RBMS) profile using the techniques of the paper's Appendix A
// and prints the per-state strengths in Hamming-weight order.
//
// Usage:
//
//	characterize -machine ibmqx4 -method brute -shots 16000
//	characterize -machine ibmq-melbourne -method awct -qubits 10 -window 4 -overlap 2
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"biasmit/internal/bitstring"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/persist"
	"biasmit/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("characterize: ")

	machineName := flag.String("machine", "ibmqx4", "machine model: ibmqx2, ibmqx4, ibmq-melbourne")
	method := flag.String("method", "brute", "characterization method: brute, esct, awct")
	qubits := flag.Int("qubits", 0, "register width (default: first min(machine,5) qubits for brute, machine size otherwise)")
	layoutFlag := flag.String("layout", "", "comma-separated physical qubits (overrides -qubits)")
	shots := flag.Int("shots", 16000, "trials per state (brute) / per window (awct) / total (esct)")
	window := flag.Int("window", 4, "AWCT window size")
	overlap := flag.Int("overlap", 2, "AWCT window overlap")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "", "save the learned profile to this file (JSON)")
	crosstalk := flag.Bool("crosstalk", false, "also measure the readout-crosstalk matrix")
	workers := flag.Int("workers", 0, "independent circuit executions run concurrently (0 = all CPUs, 1 = sequential; results are identical either way)")
	timeout := flag.Duration("timeout", time.Duration(0), "abort after this duration (0 = no limit)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	dev, ok := device.ByName(*machineName)
	if !ok {
		log.Fatalf("unknown machine %q", *machineName)
	}

	var layout []int
	switch {
	case *layoutFlag != "":
		for _, part := range strings.Split(*layoutFlag, ",") {
			q, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				log.Fatalf("bad layout entry %q: %v", part, err)
			}
			layout = append(layout, q)
		}
	default:
		width := *qubits
		if width == 0 {
			width = dev.NumQubits
			if *method == "brute" && width > 5 {
				width = 5
			}
		}
		if width > dev.NumQubits {
			log.Fatalf("machine %s has only %d qubits", dev.Name, dev.NumQubits)
		}
		for q := 0; q < width; q++ {
			layout = append(layout, q)
		}
	}

	m := core.NewMachine(dev)
	m.Workers = *workers
	prof := &core.Profiler{Machine: m, Layout: layout}
	var (
		rbms core.RBMS
		err  error
	)
	switch *method {
	case "brute":
		rbms, err = prof.BruteForceContext(ctx, *shots, *seed)
	case "esct":
		rbms, err = prof.ESCTContext(ctx, *shots, *seed)
	case "awct":
		rbms, err = prof.AWCTContext(ctx, *window, *overlap, *shots, *seed)
	default:
		log.Fatalf("unknown method %q", *method)
	}
	if err != nil {
		log.Fatal(err)
	}

	rel := rbms.Relative()
	fmt.Printf("%s RBMS on %s, layout %v (%s)\n\n", *method, dev.Name, layout, flagSummary(*method, *shots, *window, *overlap))
	if rbms.Width <= 8 {
		var labels []string
		var values []float64
		for _, b := range bitstring.AllByHammingWeight(rbms.Width) {
			labels = append(labels, b.String())
			values = append(values, rel.Of(b))
		}
		fmt.Fprint(os.Stdout, report.Bars(labels, values, 40))
	} else {
		// Too many states to list: summarize by Hamming weight.
		sums := make([]float64, rbms.Width+1)
		counts := make([]int, rbms.Width+1)
		for _, b := range bitstring.All(rbms.Width) {
			w := b.HammingWeight()
			sums[w] += rel.Of(b)
			counts[w]++
		}
		var labels []string
		var values []float64
		for w := range sums {
			labels = append(labels, fmt.Sprintf("weight %2d", w))
			values = append(values, sums[w]/float64(counts[w]))
		}
		fmt.Fprint(os.Stdout, report.Bars(labels, values, 40))
	}
	corr, err := rbms.HammingCorrelation()
	if err == nil {
		fmt.Printf("\ncorrelation with Hamming weight: %.3f\n", corr)
	}
	fmt.Printf("strongest state: %v\n", rbms.StrongestState())

	if *crosstalk {
		x, err := prof.Crosstalk(*shots, *seed+1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("\nreadout crosstalk (excess flip probability when the trigger is excited):")
		pairs := x.SignificantPairs(0.015)
		if len(pairs) == 0 {
			fmt.Println("  none above 1.5% — readout errors look independent")
		}
		for _, p := range pairs {
			fmt.Printf("  trigger q%d -> target q%d: %+.3f\n", p.Trigger, p.Target, p.Excess)
		}
	}

	if *out != "" {
		// The same persist.ProfileRecord serialization biasmitd's WAL and
		// snapshots use, so this file is importable with `biasmitd
		// -preload` (Shots and LearnedAt carry the profile's provenance,
		// which the daemon reports as its learned_at and age_ms).
		rec := persist.ProfileRecord{
			Machine:   dev.Name,
			Layout:    layout,
			Method:    *method,
			Width:     rbms.Width,
			Strength:  rbms.Strength,
			Shots:     *shots,
			LearnedAt: time.Now().UTC(),
		}
		err := persist.WriteFileAtomic(*out, func(w io.Writer) error {
			return persist.SaveProfile(w, rec)
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("profile saved to %s\n", *out)
	}
}

func flagSummary(method string, shots, window, overlap int) string {
	if method == "awct" {
		return fmt.Sprintf("window %d, overlap %d, %d shots/window", window, overlap, shots)
	}
	return fmt.Sprintf("%d shots", shots)
}
