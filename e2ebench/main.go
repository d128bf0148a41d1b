// Command e2ebench is biasmit's end-to-end benchmark. It boots the real
// biasmitd with its default flags plus -addr 127.0.0.1:0, drives one
// seed-generated, fixed-length, closed-loop workload through the typed
// client over loopback, checks every answer, and prints the metrics as
// one JSON object on the last line of standard output.
//
//	bash e2ebench/run.sh --workload qx-sync --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload twice, untraced and traced, and reports the split
// of the workload's time across the daemon's layers. README.md
// beside this file describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/core"
)

func main() {
	daemonBin := flag.String("daemon", "", "biasmitd binary (run.sh builds it)")
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "nominal length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer split")
	flag.Parse()
	if *daemonBin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench -daemon BIN --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	wl, err := Generate(*workload, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	// The driver's limit is 180s per run; stop well before it.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	b := &bench{ctx: ctx, bin: *daemonBin, wl: wl, chk: newChecker()}
	res, err := b.run(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many daemons an untraced run sets up, measures and
// stops before the one that runs the timed sequence.
const setupRuns = 5

// bench is one invocation: a workload, its checks, and its metrics.
type bench struct {
	ctx    context.Context
	bin    string
	wl     *Workload
	chk    *checker
	passes int // daemon boots so far; each is its own pass for the hit check
	probe  hostProbe

	metrics map[string]metric
	samples map[string]int
}

func (b *bench) set(name string, v float64, unit string, n int) {
	b.metrics[name] = metric{v, unit}
	b.samples[name] = n
}

// pass is one daemon boot that ran the timed sequence.
type pass struct {
	id int // the boot that ran the timed sequence
	// setupCPU is the daemon CPU seconds of each stopped set-up;
	// setupWall the wall seconds of every set-up.
	setupCPU  []float64
	setupWall []float64
	warm      []outcome
	timed     [][]outcome
	wall      time.Duration
	cpu       float64 // daemon CPU seconds over the timed phase
	rss       []float64
	profiles  map[profileKey]core.RBMS

	// Filled when the pass collects per-layer data.
	before, after       counters
	memBefore, memAfter memStats
	traces              map[string][]api.TraceEntry
}

func (p *pass) attempted() int {
	n := 0
	for _, outs := range p.timed {
		n += len(outs)
	}
	return n
}

// run performs the whole invocation. Nothing is reported unless every
// request succeeded and every check passed.
func (b *bench) run(traced bool) (*result, error) {
	b.metrics, b.samples = map[string]metric{}, map[string]int{}
	env := fmt.Sprintf("workload=%s num_cpu=%d gomaxprocs=%d go=%s commit=%s",
		b.wl.Name, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Fprintln(os.Stderr, "e2ebench:", env)
	b.probe.sample()

	var (
		mp  *pass
		err error
	)
	if !traced {
		if mp, err = b.measure(setupRuns, false, false); err != nil {
			return nil, err
		}
		if _, err := b.verify(mp, false); err != nil {
			return nil, err
		}
		if err := b.endToEnd(mp); err != nil {
			return nil, err
		}
	} else {
		// Pass A is untraced and reads /metrics and MemStats around the
		// timed phase; pass B assigns trace IDs and reads the trace ring.
		// Both daemons get -pprof-addr so their flags are the same.
		pa, err := b.measure(0, true, false)
		if err != nil {
			return nil, err
		}
		pb, err := b.measure(0, true, true)
		if err != nil {
			return nil, err
		}
		if _, err := b.verify(pa, false); err != nil {
			return nil, err
		}
		replays, err := b.verify(pb, true)
		if err != nil {
			return nil, err
		}
		if err := b.layers(pa, pb, replays); err != nil {
			return nil, err
		}
		mp = pa
	}

	fmt.Fprintf(os.Stderr, "e2ebench: host.ref_ms median=%.3f over %d idle probes (nominal %.1f)\n",
		b.probe.refMS(), len(b.probe.ms), nominalRefMS)
	if traced {
		b.set("host.ref_ms", b.probe.refMS(), "ms", len(b.probe.ms))
	}
	b.print()
	if err := checkContract("BENCHMARK.json", traced, b.metrics); err != nil {
		return nil, err
	}
	return &result{Correct: true, Attempted: mp.attempted(), Failed: 0, Metrics: b.metrics}, nil
}

// checkContract checks the metrics against the list BENCHMARK.json
// declares for the mode: the same names, each with its declared unit.
func checkContract(path string, traced bool, got map[string]metric) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var c struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := c.EndToEnd
	if traced {
		want = c.PerLayer
	}
	if len(want) != len(got) {
		return fmt.Errorf("%d metrics computed, %s declares %d", len(got), path, len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok || m.Unit != w.Unit {
			return fmt.Errorf("metric %s (%s) declared in %s is not computed with that unit", w.Name, w.Unit, path)
		}
	}
	return nil
}

// print writes every metric with its unit and sample count to stderr.
func (b *bench) print() {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, b.samples[n])
	}
}

// measure sets a daemon up stopped times, from exec to warm, stopping
// each one, then sets up one more that runs the timed sequence. With
// layerData the daemons also serve pprof, and the pass reads /metrics
// and MemStats around the timed phase; with traced every timed op
// carries a trace ID and the pass reads the daemon's spans back.
func (b *bench) measure(stopped int, layerData, traced bool) (*pass, error) {
	p := &pass{}
	for i := 0; i < stopped; i++ {
		d, conns, warm, _, wall, err := b.setUp(layerData)
		if err != nil {
			return nil, err
		}
		closeAll(conns)
		if err := d.stop(); err != nil {
			return nil, err
		}
		p.setupCPU = append(p.setupCPU, d.cpu().Seconds())
		p.setupWall = append(p.setupWall, wall.Seconds())
		p.warm = append(p.warm, warm...)
	}
	d, conns, warm, profiles, wall, err := b.setUp(layerData)
	if err != nil {
		return nil, err
	}
	p.setupWall = append(p.setupWall, wall.Seconds())
	p.warm = append(p.warm, warm...)
	p.id, p.profiles = b.passes, profiles
	err = b.timed(d, conns, p, layerData, traced)
	closeAll(conns)
	if err != nil {
		d.kill()
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	return p, nil
}

func closeAll(conns []*conn) {
	for _, c := range conns {
		c.close()
	}
}

// setUp execs a daemon and brings it to serving warm: the listening
// line read, the workload's profiles characterized one after another,
// and the warm-up ops done. The returned duration is its wall time.
func (b *bench) setUp(layerData bool) (*daemon, []*conn, []outcome, map[profileKey]core.RBMS, time.Duration, error) {
	b.passes++
	b.probe.sample() // no daemon is running
	start := time.Now()
	var extra []string
	if layerData {
		extra = []string{"-pprof-addr", "127.0.0.1:0"}
	}
	d, err := startDaemon(b.bin, extra...)
	if err != nil {
		return nil, nil, nil, nil, 0, err
	}
	fail := func(conns []*conn, err error) (*daemon, []*conn, []outcome, map[profileKey]core.RBMS, time.Duration, error) {
		closeAll(conns)
		d.kill()
		return nil, nil, nil, nil, 0, err
	}
	conns := make([]*conn, len(b.wl.Tenants))
	for i, key := range b.wl.Tenants {
		conns[i] = newConn(d.addr, key)
	}
	var chars []*api.CharacterizeResponse
	for i := range b.wl.Profiles {
		resp, err := conns[0].c.Characterize(b.ctx, &b.wl.Profiles[i])
		if err != nil {
			return fail(conns, fmt.Errorf("set-up characterize: %w", err))
		}
		chars = append(chars, resp)
	}
	var warm []outcome
	for i, ops := range b.wl.Warmup {
		for _, op := range ops {
			o := conns[i].do(b.ctx, op, false)
			if o.Err != nil {
				return fail(conns, fmt.Errorf("warm-up %s: %w", op.Kind, o.Err))
			}
			warm = append(warm, o)
		}
	}
	setup := time.Since(start)

	profiles := map[profileKey]core.RBMS{}
	for i, resp := range chars {
		req := &b.wl.Profiles[i]
		if err := checkCharacterize(req, resp, false); err != nil {
			return fail(conns, err)
		}
		rbms, err := core.NewRBMS(resp.Profile.Width, resp.Strengths)
		if err != nil {
			return fail(conns, err)
		}
		profiles[profileKey{req.Machine, resp.Profile.Width}] = rbms
	}
	for i := range warm {
		if err := b.checkOutcome(b.passes, &warm[i], false); err != nil {
			return fail(conns, fmt.Errorf("warm-up: %w", err))
		}
	}
	return d, conns, warm, profiles, setup, nil
}

// timed runs the workload's closed loops against a warm daemon.
func (b *bench) timed(d *daemon, conns []*conn, p *pass, layerData, traced bool) error {
	var (
		poller *tracePoller
		pc     *conn
		err    error
	)
	if layerData {
		if p.before, err = scrape(b.ctx, conns[0].c); err != nil {
			return err
		}
		if p.memBefore, err = readMemStats(b.ctx, d.pprof()); err != nil {
			return err
		}
	}
	if traced {
		pc = newConn(d.addr, "")
		defer pc.close()
		poller = pollTraces(pc.c)
	}
	rs := sampleRSS(d.pid(), 50*time.Millisecond)
	cpu0, err0 := cpuSeconds(d.pid())
	p.timed, p.wall = runLoops(b.ctx, conns, b.wl.Timed, b.wl.RoundLen, traced, b.probe.sample)
	cpu1, err1 := cpuSeconds(d.pid())
	p.cpu = cpu1 - cpu0
	rss, rssErr := rs.stop()
	p.rss = rss
	var traceErr error
	if traced {
		p.traces, traceErr = poller.stop()
	}
	if err := errors.Join(err0, err1, rssErr, traceErr); err != nil {
		return fmt.Errorf("instrumenting the timed phase: %w", err)
	}
	if layerData {
		if p.after, err = scrape(b.ctx, conns[0].c); err != nil {
			return err
		}
		if p.memAfter, err = readMemStats(b.ctx, d.pprof()); err != nil {
			return err
		}
	}
	return nil
}

// checkOutcome checks one op's answer from boot pass and feeds mitigate
// answers to the cross-response checker.
func (b *bench) checkOutcome(pass int, o *outcome, timed bool) error {
	if o.Err != nil {
		return fmt.Errorf("%s failed: %w", o.Op.Kind, o.Err)
	}
	switch o.Op.Kind {
	case opMitigate, opJob:
		return b.chk.add(pass, o.Op.Mitigate, o.Mitigate)
	case opCharacterize:
		return checkCharacterize(o.Op.Characterize, o.Characterize, timed)
	}
	return nil
}

// verify checks a pass's timed answers, then replays its distinct
// compute requests in-process. Every baseline and SIM answer must equal
// its replay. With all set, AIM requests are replayed too (for the
// per-layer split); otherwise only what the check needs.
func (b *bench) verify(p *pass, all bool) (map[string]*replayed, error) {
	for _, outs := range p.timed {
		for i := range outs {
			if err := b.checkOutcome(p.id, &outs[i], true); err != nil {
				return nil, err
			}
		}
	}
	if err := b.chk.finish(); err != nil {
		return nil, err
	}
	var reqs []*api.MitigateRequest
	answers := map[string]*api.MitigateResponse{}
	add := func(o *outcome) {
		if o.Mitigate == nil || o.Mitigate.CacheHit {
			return
		}
		k := reqKey(o.Op.Mitigate)
		if _, ok := answers[k]; ok || (!all && o.Op.Mitigate.Policy == "aim") {
			return
		}
		answers[k] = o.Mitigate
		reqs = append(reqs, o.Op.Mitigate)
	}
	for _, outs := range p.timed {
		for i := range outs {
			add(&outs[i])
		}
	}
	nTimed := len(reqs)
	for i := range p.warm {
		add(&p.warm[i])
	}
	reps, err := replayAll(b.ctx, reqs, p.profiles)
	if err != nil {
		return nil, err
	}
	out := map[string]*replayed{}
	for i, r := range reps {
		k := reqKey(reqs[i])
		if reqs[i].Policy != "aim" {
			if err := matchReplay(answers[k], r); err != nil {
				return nil, fmt.Errorf("%s: daemon and in-process replay disagree: %w", k, err)
			}
		}
		if i < nTimed {
			out[k] = r
		}
	}
	return out, nil
}

// endToEnd computes the end-to-end metrics of an untraced pass. They
// are the ones the host moves least: CPU time the daemon is charged
// (time the hypervisor steals is not), scaled by the host probe; memory;
// and the answers themselves. Wall-clock figures go to stderr, and to
// the traced split as client.* metrics.
func (b *bench) endToEnd(p *pass) error {
	var pst []float64
	for _, outs := range p.timed {
		for _, o := range outs {
			if o.Op.Kind == opMitigate && o.Mitigate.Metrics != nil {
				pst = append(pst, o.Mitigate.Metrics.PST)
			}
		}
	}
	if len(pst) == 0 || len(p.rss) == 0 || len(p.setupCPU) == 0 {
		return fmt.Errorf("too few samples: %d PSTs, %d RSS samples, %d set-ups", len(pst), len(p.rss), len(p.setupCPU))
	}
	n := p.attempted()
	setupCPU, cpuPerReq := median(p.setupCPU), p.cpu*1e3/float64(n)
	fmt.Fprintf(os.Stderr, "e2ebench: unscaled setup_s=%.4f cpu_ms_per_req=%.4f, scaled by %.4f\n",
		setupCPU, cpuPerReq, b.probe.scale())
	b.set("setup_s", setupCPU*b.probe.scale(), "s", len(p.setupCPU))
	b.set("cpu_ms_per_req", cpuPerReq*b.probe.scale(), "ms", n)
	b.set("pst_mean", mean(pst), "ratio", len(pst))
	b.set("rss_p50_mb", median(p.rss), "MB", len(p.rss))
	client := &bench{metrics: map[string]metric{}, samples: map[string]int{}}
	client.clientMetrics(p)
	fmt.Fprintln(os.Stderr, "e2ebench: wall-clock figures (not bounded; they move with host load):")
	client.print()
	printModes(p)
	return nil
}

// clientMetrics sets the wall-clock figures a client of the daemon
// sees. A percentile the samples cannot support (fewer than ten
// samples beyond it) is 0.
func (b *bench) clientMetrics(p *pass) {
	var lat []float64
	for _, outs := range p.timed {
		for _, o := range outs {
			if o.Op.Kind == opMitigate {
				lat = append(lat, o.ms())
			}
		}
	}
	pct := func(xs []float64, q float64) float64 {
		v, ok := percentile(xs, q)
		if !ok {
			return 0
		}
		return v
	}
	jl := jobLatencies(p)
	n := p.attempted()
	b.set("client.setup_wall_s", median(p.setupWall), "s", len(p.setupWall))
	b.set("client.throughput_rps", float64(n)/p.wall.Seconds(), "req/s", n)
	b.set("client.mitigate_p50_ms", pct(lat, 50), "ms", len(lat))
	b.set("client.mitigate_p90_ms", pct(lat, 90), "ms", len(lat))
	b.set("client.job_p50_ms", pct(jl, 50), "ms", len(jl))
	b.set("client.job_p90_ms", pct(jl, 90), "ms", len(jl))
}

// printModes shows each latency mode of the sync mitigates (a cache
// hit, by benchmark, or a computed answer) with its sample count and
// range, and the mode of the samples at and around p50 and p90: a
// steady percentile sits inside one mode, not on a boundary.
func printModes(p *pass) {
	type sample struct {
		ms   float64
		mode string
	}
	var all []sample
	modes := map[string][]float64{}
	for _, outs := range p.timed {
		for _, o := range outs {
			if o.Op.Kind != opMitigate {
				continue
			}
			mode := "computed"
			if o.Mitigate.CacheHit {
				mode = "hit " + o.Op.Mitigate.Benchmark
			}
			all = append(all, sample{o.ms(), mode})
			modes[mode] = append(modes[mode], o.ms())
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ms < all[j].ms })
	names := make([]string, 0, len(modes))
	for m := range modes {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		xs := modes[m]
		sort.Float64s(xs)
		fmt.Fprintf(os.Stderr, "e2ebench: mode %-12s n=%-5d min=%.3f p50=%.3f max=%.3f ms\n", m, len(xs), xs[0], median(xs), xs[len(xs)-1])
	}
	for _, q := range []float64{50, 90} {
		i := int(math.Ceil(q/100*float64(len(all)))) - 1
		lo, hi := max(0, i-len(all)/20), min(len(all)-1, i+len(all)/20)
		same := 0
		for _, s := range all[lo : hi+1] {
			if s.mode == all[i].mode {
				same++
			}
		}
		fmt.Fprintf(os.Stderr, "e2ebench: p%.0f is a %q sample; %d of the %d samples within 5%% of its rank share its mode\n",
			q, all[i].mode, same, hi-lo+1)
	}
}

func jobLatencies(p *pass) []float64 {
	var out []float64
	for _, outs := range p.timed {
		for _, o := range outs {
			if o.Op.Kind == opJob {
				out = append(out, o.ms())
			}
		}
	}
	return out
}

// commit names the revision the harness was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "-dirty"
		}
	}
	return rev + dirty
}
