// Command qsim runs one of the paper's NISQ kernels on a simulated IBM
// machine and prints the measured output distribution with reliability
// metrics.
//
// Usage:
//
//	qsim -machine ibmqx4 -kernel bv -key 0111 -shots 8192
//	qsim -machine ibmq-melbourne -kernel qaoa -bench qaoa-6 -shots 32000
//	qsim -machine ibmqx2 -kernel ghz -n 5
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
	"biasmit/internal/bitstring"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/kernels"
	"biasmit/internal/maxcut"
	"biasmit/internal/metrics"
	"biasmit/internal/persist"
	"biasmit/internal/qasm"
	"biasmit/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qsim: ")

	machineName := flag.String("machine", "ibmqx4", "machine model: ibmqx2, ibmqx4, ibmq-melbourne")
	kernel := flag.String("kernel", "bv", "kernel: bv, qaoa, ghz, uniform, prep")
	key := flag.String("key", "0111", "secret key for bv / basis state for prep")
	benchName := flag.String("bench", "qaoa-4A", "QAOA benchmark: qaoa-4A, qaoa-4B, qaoa-6, qaoa-7")
	n := flag.Int("n", 5, "register size for ghz/uniform")
	shots := flag.Int("shots", 8192, "number of trials")
	seed := flag.Int64("seed", 1, "random seed")
	top := flag.Int("top", 10, "how many outcomes to print")
	outFile := flag.String("out", "", "also save the report to this file (written atomically)")
	ideal := flag.Bool("ideal", false, "disable all noise")
	dumpQASM := flag.Bool("qasm", false, "print the transpiled circuit as OpenQASM 2.0 and exit")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline)")
	workers := flag.Int("workers", 0, "partition the trajectory trial loop across this many goroutines; "+
		"results are deterministic per (seed, workers) pair (0 = single stream; "+
		"runs on the exact engine, ≤8 qubits with shots ≥ 2^n, ignore it)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
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

	var bench kernels.Benchmark
	switch *kernel {
	case "bv":
		k, err := bitstring.Parse(*key)
		if err != nil {
			log.Fatalf("bad key: %v", err)
		}
		bench = kernels.BV("bv-"+*key, k)
	case "qaoa":
		pg, err := maxcut.Table3Graph(*benchName)
		if err != nil {
			log.Fatal(err)
		}
		p := 2
		if *benchName == "qaoa-4A" {
			p = 1
		}
		bench = kernels.QAOA(*benchName, pg, p)
	case "ghz":
		bench = kernels.Benchmark{Name: fmt.Sprintf("ghz-%d", *n), Circuit: kernels.GHZ(*n),
			Correct: []bitstring.Bits{bitstring.Zeros(*n), bitstring.Ones(*n)}}
	case "uniform":
		bench = kernels.Benchmark{Name: "uniform", Circuit: kernels.UniformSuperposition(*n)}
	case "prep":
		b, err := bitstring.Parse(*key)
		if err != nil {
			log.Fatalf("bad state: %v", err)
		}
		bench = kernels.Benchmark{Name: "prep-" + *key, Circuit: kernels.BasisPrep(b),
			Correct: []bitstring.Bits{b}}
	default:
		log.Fatalf("unknown kernel %q", *kernel)
	}

	m := core.NewMachine(dev)
	if *ideal {
		m.Opt = backend.Options{NoGateNoise: true, NoDecay: true, NoReadoutError: true}
	}
	m.Opt.Workers = *workers
	job, err := core.NewJob(bench.Circuit, m)
	if err != nil {
		log.Fatal(err)
	}
	if *dumpQASM {
		fmt.Print(qasm.Export(job.Plan.Physical))
		return
	}
	counts, err := job.BaselineContext(ctx, *shots, *seed)
	if err != nil {
		log.Fatal(err)
	}
	d := counts.Dist()

	var buf bytes.Buffer
	w := io.Writer(os.Stdout)
	if *outFile != "" {
		w = io.MultiWriter(os.Stdout, &buf)
	}
	fmt.Fprintf(w, "%s on %s, %d trials (layout %v, %d swaps)\n\n",
		bench.Name, dev.Name, *shots, job.Plan.InitialLayout, job.Plan.SwapCount)
	rows := [][]string{}
	for _, b := range d.TopK(*top) {
		rows = append(rows, []string{b.String(), fmt.Sprint(counts.Get(b)), report.F(d.Prob(b))})
	}
	fmt.Fprint(w, report.Table([]string{"outcome", "count", "probability"}, rows))
	if len(bench.Correct) > 0 {
		fmt.Fprintf(w, "\nPST  %.4f\nIST  %.4f\nROCA %d\n",
			metrics.PSTEquiv(d, bench.Correct...),
			metrics.IST(d, bench.Correct...),
			metrics.ROCA(d, bench.Correct...))
	}
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
