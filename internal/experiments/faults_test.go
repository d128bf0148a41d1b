package experiments

import (
	"context"
	"testing"
	"time"

	"biasmit/internal/backend"
	"biasmit/internal/chaos"
	"biasmit/internal/resilient"
)

// TestRenderedOutputUnchangedUnderFaults runs a characterization figure
// and the suite (Fig 10/14 and Table 5: profiling plus baseline, SIM
// and AIM on all three machines) through a retrying executor over
// injected transient and partial faults. A retry replays the failed run
// whole under its own seed, so the rendered output is byte-identical to
// the clean run's.
func TestRenderedOutputUnchangedUnderFaults(t *testing.T) {
	ctx := context.Background()
	render := func(cfg Config) string {
		t.Helper()
		fig1, err := Figure1(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fig4, err := Figure4(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		suite, err := RunSuite(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fig1.Render() + fig4.Render() + suite.Figure10() + suite.Figure14() + suite.Table5()
	}
	clean := render(quick(0.04, 9))

	inj := chaos.New(chaos.Plan{Seed: 7, TransientRate: 0.25, PartialRate: 0.05}, backend.RunContext)
	exec := resilient.New(inj.Run, resilient.Policy{
		MaxAttempts: 40,
		Sleep:       func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
	})
	cfg := quick(0.04, 9)
	cfg.Runner = exec.Run
	if faulty := render(cfg); faulty != clean {
		t.Fatalf("output under faults differs from the clean run:\n--- clean\n%s\n--- faulty\n%s", clean, faulty)
	}
	st := inj.Stats()
	if st.Transients == 0 || st.Partials == 0 {
		t.Fatalf("fault stats %+v: the run saw no transient or no partial fault", st)
	}
	t.Logf("%d runs, %d transient and %d partial faults", st.Calls, st.Transients, st.Partials)
}
