// Command qasmrun executes an OpenQASM 2.0 program on a simulated
// machine model, optionally under an Invert-and-Measure policy, and
// prints the measured distribution.
//
// Usage:
//
//	qasmrun -file circuit.qasm -machine ibmqx4 -shots 8192
//	qasmrun -file circuit.qasm -machine ibmq-melbourne -policy sim
//	cat circuit.qasm | qasmrun -machine ibmqx2
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"biasmit/internal/backend"
	"biasmit/internal/chaos"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/persist"
	"biasmit/internal/qasm"
	"biasmit/internal/report"
	"biasmit/internal/resilient"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qasmrun: ")

	file := flag.String("file", "", "QASM source file (default: stdin)")
	machineName := flag.String("machine", "ibmqx4", "machine model: ibmqx2, ibmqx4, ibmq-melbourne")
	shots := flag.Int("shots", 8192, "number of trials")
	seed := flag.Int64("seed", 1, "random seed")
	policy := flag.String("policy", "baseline", "measurement policy: baseline, sim")
	top := flag.Int("top", 10, "how many outcomes to print")
	outFile := flag.String("out", "", "also save the report to this file (written atomically)")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline)")
	workers := flag.Int("workers", 0, "goroutines for SIM inversion groups / baseline trial "+
		"partitions (0 = sequential)")
	chaosPlan := chaos.Flags(flag.CommandLine)
	retry := resilient.Flags(flag.CommandLine)
	flag.Parse()
	if err := chaosPlan.Validate(); err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var src []byte
	var err error
	if *file != "" {
		src, err = os.ReadFile(*file)
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		log.Fatalf("reading source: %v", err)
	}

	c, err := qasm.Parse(string(src))
	if err != nil {
		log.Fatal(err)
	}
	dev, ok := device.ByName(*machineName)
	if !ok {
		log.Fatalf("unknown machine %q", *machineName)
	}
	m := core.NewMachine(dev)
	m.Workers = *workers // SIM runs its inversion groups as parallel jobs
	m.Run = resilient.New(chaosPlan.Wrap(backend.RunContext), *retry).Run
	job, err := core.NewJob(c, m)
	if err != nil {
		log.Fatal(err)
	}

	var counts *dist.Counts
	switch *policy {
	case "baseline":
		// Baseline is a single job, so parallelism lives inside the
		// trajectory trial loop; results are deterministic per (seed,
		// workers). Runs on the exact engine ignore it.
		job.Machine.Opt.Workers = *workers
		counts, err = job.BaselineContext(ctx, *shots, *seed)
	case "sim":
		var res *core.SIMResult
		res, err = core.SIM4Context(ctx, job, *shots, *seed)
		if res != nil {
			counts = res.Merged
		}
	default:
		log.Fatalf("unknown policy %q", *policy)
	}
	if err != nil {
		log.Fatal(err)
	}

	d := counts.Dist()
	var buf bytes.Buffer
	w := io.Writer(os.Stdout)
	if *outFile != "" {
		w = io.MultiWriter(os.Stdout, &buf)
	}
	fmt.Fprintf(w, "%s on %s (%s), %d trials, layout %v, %d swaps\n\n",
		c.Name, dev.Name, *policy, *shots, job.Plan.InitialLayout, job.Plan.SwapCount)
	var rows [][]string
	for _, b := range d.TopK(*top) {
		rows = append(rows, []string{b.String(), fmt.Sprint(counts.Get(b)), report.F(d.Prob(b))})
	}
	fmt.Fprint(w, report.Table([]string{"outcome", "count", "probability"}, rows))
	if *outFile != "" {
		err := persist.WriteFileAtomic(*outFile, func(f io.Writer) error {
			_, err := f.Write(buf.Bytes())
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
	}
}
