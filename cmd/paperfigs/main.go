// Command paperfigs regenerates every table and figure of the paper's
// evaluation on the simulated machines and prints them with the paper's
// published values for comparison. Use -scale to trade fidelity for
// runtime and -only to select specific experiments.
//
// Usage:
//
//	paperfigs                 # everything at the paper's trial counts
//	paperfigs -scale 0.1      # 10% of the trial budget (quick look)
//	paperfigs -only fig1,tab5
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
	"strings"
	"time"

	"biasmit/internal/experiments"
	"biasmit/internal/persist"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperfigs: ")

	scale := flag.Float64("scale", 1.0, "fraction of the paper's trial counts")
	seed := flag.Int64("seed", 2019, "random seed")
	only := flag.String("only", "", "comma-separated subset: fig1,tab1,fig3,fig4,fig5,fig6,tab2,tab3,fig7,fig8,fig9,suite,fig11,fig13,fig15,repeat,ext,alloc,sched,scale,zne (suite = fig10+fig14+tab5)")
	workers := flag.Int("workers", 0, "independent circuit executions run concurrently (0 = all CPUs, 1 = sequential; results are identical either way)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	outFile := flag.String("out", "", "also save the full report to this file (written atomically on success)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := experiments.Config{Scale: *scale, Seed: *seed, Workers: *workers}
	selected := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(name)] = true
		}
	}
	want := func(name string) bool { return len(selected) == 0 || selected[name] }

	var buf bytes.Buffer
	w := io.Writer(os.Stdout)
	if *outFile != "" {
		w = io.MultiWriter(os.Stdout, &buf)
	}

	run := func(name, title string, f func() (string, error)) {
		if !want(name) {
			return
		}
		start := time.Now()
		out, err := f()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(w, "==== %s — %s (%.1fs) ====\n%s\n", strings.ToUpper(name), title, time.Since(start).Seconds(), out)
	}

	run("fig1", "Invert-and-Measure on IBM-Q5 (motivating example)", func() (string, error) {
		r, err := experiments.Figure1(ctx, cfg)
		return r.Render(), err
	})
	run("tab1", "measurement error rates per machine", func() (string, error) {
		r, err := experiments.Table1(ctx, cfg)
		return r.Render(), err
	})
	run("fig3", "impact of errors on BV-2 output", func() (string, error) {
		r, err := experiments.Figure3(ctx, cfg)
		return r.Render(), err
	})
	run("fig4", "ibmqx2 relative BMS, direct vs equal superposition", func() (string, error) {
		r, err := experiments.Figure4(ctx, cfg)
		return r.Render(), err
	})
	run("fig5", "melbourne relative BMS by Hamming weight (10 qubits)", func() (string, error) {
		r, err := experiments.Figure5(ctx, cfg)
		return r.Render(), err
	})
	run("fig6", "GHZ-5 output distribution on melbourne", func() (string, error) {
		r, err := experiments.Figure6(ctx, cfg)
		return r.Render(), err
	})
	run("tab2", "impact of measurement bias on QAOA (graphs A-E)", func() (string, error) {
		r, err := experiments.Table2(ctx, cfg)
		return r.Render(), err
	})
	run("tab3", "benchmark characteristics", func() (string, error) {
		return experiments.RenderTable3(experiments.Table3()), nil
	})
	run("fig7", "SIM worked example (paper's published numbers)", func() (string, error) {
		return experiments.Figure7(cfg).Render(), nil
	})
	run("fig8", "SIM mode-count comparison on a mid-weight state", func() (string, error) {
		r, err := experiments.Figure8(ctx, cfg)
		return r.Render(), err
	})
	run("fig9", "QAOA graph-D on melbourne: baseline vs SIM", func() (string, error) {
		r, err := experiments.Figure9(ctx, cfg)
		return r.Render(), err
	})
	if want("suite") || want("fig10") || want("fig14") || want("tab5") {
		start := time.Now()
		suite, err := experiments.RunSuite(ctx, cfg)
		if err != nil {
			log.Fatalf("suite: %v", err)
		}
		elapsed := time.Since(start).Seconds()
		fmt.Fprintf(w, "==== FIG10 — SIM PST improvement (%.1fs for the whole suite) ====\n%s\n", elapsed, suite.Figure10())
		fmt.Fprintf(w, "==== FIG14 — SIM and AIM PST improvement ====\n%s\n", suite.Figure14())
		fmt.Fprintf(w, "==== TAB5 — inference strength per policy ====\n%s\n", suite.Table5())
		sim, aim := suite.MeanImprovement()
		fmt.Fprintf(w, "mean PST improvement: SIM %.2fx, AIM %.2fx (paper: up to 2X and 3X)\n\n", sim, aim)
	}
	run("fig11", "ibmqx4 arbitrary bias and its effect on BV", func() (string, error) {
		r, err := experiments.Figure11(ctx, cfg)
		return r.Render(), err
	})
	run("fig13", "BV on ibmqx4 for all keys: baseline vs SIM vs AIM", func() (string, error) {
		r, err := experiments.Figure13(ctx, cfg)
		return r.Render(), err
	})
	run("fig15", "RBMS characterization validation (direct/ESCT/AWCT)", func() (string, error) {
		r, err := experiments.Figure15(ctx, cfg)
		return r.Render(), err
	})
	run("repeat", "bias repeatability across calibration cycles (§6.1)", func() (string, error) {
		r, err := experiments.Repeatability(ctx, cfg)
		return r.Render(), err
	})
	run("ext", "extension: Invert-and-Measure vs confusion-matrix mitigation", func() (string, error) {
		r, err := experiments.MitigationComparison(ctx, cfg)
		return r.Render(), err
	})
	run("alloc", "ablation: naive vs variability-aware qubit allocation", func() (string, error) {
		r, err := experiments.AllocationComparison(ctx, cfg)
		return r.Render(), err
	})
	run("sched", "ablation: gate-time vs schedule-aware decoherence", func() (string, error) {
		r, err := experiments.ScheduleAblation(ctx, cfg)
		return r.Render(), err
	})
	run("scale", "scaling: mitigation stack on a synthetic 16-qubit machine", func() (string, error) {
		r, err := experiments.Scaling(ctx, cfg)
		return r.Render(), err
	})
	run("zne", "extension: zero-noise extrapolation composed with SIM", func() (string, error) {
		r, err := experiments.ZNEComparison(ctx, cfg)
		return r.Render(), err
	})

	if *outFile != "" {
		err := persist.WriteFileAtomic(*outFile, func(f io.Writer) error {
			_, err := f.Write(buf.Bytes())
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report saved to %s\n", *outFile)
	}
}
