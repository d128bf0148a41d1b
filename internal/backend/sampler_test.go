package backend_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/dist"
)

// samplerSeeds are the seeds the exact sampler's oracle runs at: both
// ends of int64, both sides of 2^31, and 0 and 2^31−1, which math/rand's
// seeding reduces to the same residue (0 mod 2^31−1) and replaces.
var samplerSeeds = []int64{0, 1, -1, 1<<31 - 1, 1 << 31, math.MinInt64, math.MaxInt64}

// samplerGroup is one program the exact engine runs, with the noise
// switches it runs under.
type samplerGroup struct {
	label string
	c     *circuit.Circuit
	dev   *device.Device
	opts  []backend.Options
}

// samplerGroups returns every SIM group of the 5-qubit suite on ibmqx2
// and on ibmqx4, whose readout is correlated, with and without readout
// error; and three inversion groups of two programs on an 8-qubit line
// with readout crosstalk, also noiseless, which leaves runs of exact
// zeros in the diagonal and so flat stretches in the CDF.
func samplerGroups(t *testing.T) []samplerGroup {
	t.Helper()
	var groups []samplerGroup
	suiteOpts := []backend.Options{{}, {NoReadoutError: true}}
	forEachSIMGroup(t, allSIMCells(), func(label string, c *circuit.Circuit, dev *device.Device) {
		groups = append(groups, samplerGroup{label, c, dev, suiteOpts})
	})
	dev, err := device.Synthetic(device.SyntheticSpec{NumQubits: 8, Topology: "line", Crosstalk: 6, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if len(dev.Correlations) == 0 {
		t.Fatal("synthetic device has no readout correlations")
	}
	ghz := circuit.New(8, "ghz-8").H(0)
	spread := circuit.New(8, "spread-8")
	for q := 0; q < 8; q++ {
		spread.RY(0.3+0.2*float64(q), q)
		if q > 0 {
			ghz.CX(q-1, q)
			spread.CX(q-1, q)
		}
	}
	spread.T(3).H(5)
	wideOpts := []backend.Options{{}, {NoReadoutError: true}, {NoGateNoise: true, NoDecay: true}}
	for _, c := range []*circuit.Circuit{ghz, spread} {
		for _, inv := range []string{"00000000", "11111111", "01010101"} {
			g := c.Clone().ApplyInversionString(bitstring.MustParse(inv))
			groups = append(groups, samplerGroup{fmt.Sprintf("%s/%s/inv=%s", dev.Name, c.Name, inv), g, dev, wideOpts})
		}
	}
	return groups
}

// TestExactSamplerMatchesReference: the exact engine's compiled sampler
// (a reused copy of math/rand's generator, the guide-table CDF search
// and the per-outcome flip table) gives bit for bit the counts of the
// loop it replaced (backend.ExactReference: rand.New(rand.NewSource),
// sort.Search and CompiledReadout.Apply) for every group of
// samplerGroups, at every seed of samplerSeeds, at 2^n shots and on both
// sides of the engine's 1024-shot context check.
func TestExactSamplerMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, g := range samplerGroups(t) {
		n := g.dev.NumQubits
		for _, base := range g.opts {
			for _, seed := range samplerSeeds {
				for _, shots := range []int{1 << uint(n), 1023, 1025, 3000} {
					opt := base
					opt.Shots, opt.Seed = shots, seed
					label := fmt.Sprintf("%s/%+v", g.label, opt)
					want, err := backend.ExactReference(g.c, g.dev, opt)
					if err != nil {
						t.Fatal(err)
					}
					sameHistogram(t, label, want, mustRun(t, ctx, g.c, g.dev, opt))
				}
			}
		}
	}
}

// TestSamplerPoolConcurrent runs SIM and AIM calls at Machine.Workers 4
// from four goroutines at once, so the runs of every call share the
// reused generators and sampling buffers while other calls' runs take
// and return them. The calls cover the 5-qubit suite's exact-engine
// runs and a 14-qubit program whose trajectory runs each fan out over
// two backend workers. Every call's merged counts equal the same call's
// at Machine.Workers 1, run alone.
func TestSamplerPoolConcurrent(t *testing.T) {
	ctx := context.Background()
	type call struct {
		label    string
		dev      *device.Device
		bench    string
		opt      backend.Options
		shots    int
		seed     int64
		sim, aim string
	}
	var calls []call
	for i, cell := range allSIMCells() {
		calls = append(calls, call{label: cell.dev.Name + "/" + cell.bench, dev: cell.dev, bench: cell.bench, shots: 3000, seed: int64(i)})
	}
	mel := device.IBMQMelbourne()
	calls = append(calls, call{label: "melbourne/bv-6", dev: mel, bench: "bv-6", opt: backend.Options{Workers: 2}, shots: 256, seed: 5})
	job := func(c call, workers int) *core.Job {
		m := core.NewMachine(c.dev)
		m.Opt = c.opt
		m.Workers = workers
		return placedJob(t, c.bench, m)
	}
	run := func(job *core.Job, c call) (sim, aim string, err error) {
		strings, err := core.StandardInversionStrings(job.Width(), 4)
		if err != nil {
			return "", "", err
		}
		s, err := core.SIMContext(ctx, job, strings, c.shots, c.seed)
		if err != nil {
			return "", "", err
		}
		a, err := core.AIMContext(ctx, job, equalRBMS(job.Width()), core.AIMConfig{}, c.shots, c.seed)
		if err != nil {
			return "", "", err
		}
		return backend.CountsDigest(s.Merged), backend.CountsDigest(a.Merged), nil
	}
	for i := range calls {
		var err error
		if calls[i].sim, calls[i].aim, err = run(job(calls[i], 1), calls[i]); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		// Each goroutine starts at its own call, on jobs of its own.
		order := make([]call, len(calls))
		jobs := make([]*core.Job, len(calls))
		for k := range calls {
			order[k] = calls[(k+g*len(calls)/goroutines)%len(calls)]
			jobs[k] = job(order[k], 4)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, c := range order {
				sim, aim, err := run(jobs[k], c)
				if err != nil {
					t.Error(err)
					return
				}
				if sim != c.sim || aim != c.aim {
					t.Errorf("goroutine %d, %s: SIM %s AIM %s at Workers 4, want %s %s", g, c.label, sim, aim, c.sim, c.aim)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestExactRunAfterPanicMidSampling: a warm exact run whose context
// panics at its second check, 1024 shots into sampling, hands its
// half-used generator and buffers back to the free list; the runs after it,
// which take them, give the counts of a run that never saw the panic.
func TestExactRunAfterPanicMidSampling(t *testing.T) {
	dev := device.IBMQX4()
	job := placedJob(t, "qaoa-4A", core.NewMachine(dev))
	c := job.Plan.WithInversion(bitstring.Ones(job.Width()))
	opt := backend.Options{Shots: 3000, Seed: 8}
	want := mustRun(t, context.Background(), c, dev, opt)
	for i := 0; i < 3; i++ {
		ctx := &failingCtx{Context: context.Background(), left: 1, panics: true}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the run did not panic")
				}
			}()
			backend.RunContext(ctx, c, dev, opt)
		}()
		sameHistogram(t, fmt.Sprintf("after panic %d", i), want, mustRun(t, context.Background(), c, dev, opt))
	}
}

// TestTrajectoryRunAfterPanicMidRun is TestExactRunAfterPanicMidSampling's
// trajectory twin: a run at 8 shots per trajectory whose context panics
// at its fourth batch, three trajectories in, hands its state vector and
// batch sampler back to the free list as they are; the runs after it,
// which take them, give the counts of a run that never saw the panic. A
// compacted melbourne program and a 5-qubit one take turns, so the
// scratch also changes width.
func TestTrajectoryRunAfterPanicMidRun(t *testing.T) {
	ctx := context.Background()
	mel := device.IBMQMelbourne()
	type program struct {
		label string
		c     *circuit.Circuit
		dev   *device.Device
		want  *dist.Counts
	}
	programs := []*program{
		{label: "melbourne/bv-6", c: placedJob(t, "bv-6", core.NewMachine(mel)).Plan.Physical, dev: mel},
		{label: "ibmqx4/ghz", c: ghzQX4(), dev: device.IBMQX4()},
	}
	opt := backend.Options{Shots: 400, Seed: 12, ShotsPerTrajectory: 8}
	for _, p := range programs {
		p.want = mustRun(t, ctx, p.c, p.dev, opt)
	}
	for round := 0; round < 3; round++ {
		for _, failed := range programs {
			failing := &failingCtx{Context: ctx, left: 3, panics: true}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: the run did not panic", failed.label)
					}
				}()
				backend.RunContext(failing, failed.c, failed.dev, opt)
			}()
			for _, p := range programs {
				label := fmt.Sprintf("round %d, %s after a panic in %s", round, p.label, failed.label)
				sameHistogram(t, label, p.want, mustRun(t, ctx, p.c, p.dev, opt))
			}
		}
	}
}
