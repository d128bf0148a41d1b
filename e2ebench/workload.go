package main

import (
	"fmt"
	"math/rand"

	"biasmit/internal/api"
)

// Op kinds. Every op is one closed-loop step: the connection sends the
// next op only after this one has completed.
const (
	opMitigate     = "mitigate"      // POST /v1/mitigate
	opJob          = "job"           // POST /v1/jobs, then WaitJob until terminal
	opCharacterize = "characterize"  // POST /v1/characterize
	opListJobs     = "list_jobs"     // GET /v1/jobs, two pages
	opListProfiles = "list_profiles" // GET /v1/profiles, every page
)

// Op is one request of a workload sequence.
type Op struct {
	Kind         string                   `json:"kind"`
	Mitigate     *api.MitigateRequest     `json:"mitigate,omitempty"`
	Characterize *api.CharacterizeRequest `json:"characterize,omitempty"`
	// Page is the page size of a list op.
	Page int `json:"page,omitempty"`
}

// Workload is the fixed input of one run, generated from the workload
// seed alone: the same (name, seed, seconds) always gives byte-identical
// sequences.
type Workload struct {
	Name string `json:"name"`
	// Tenants holds each connection's X-API-Key ("" sends none).
	Tenants []string `json:"tenants"`
	// Profiles are characterized sequentially during set-up.
	Profiles []api.CharacterizeRequest `json:"profiles"`
	// Warmup and Timed hold one op sequence per connection. Warm-up ops
	// run during set-up, one connection after the other; timed ops run
	// as concurrent closed loops, one per connection.
	Warmup [][]Op `json:"warmup"`
	Timed  [][]Op `json:"timed"`
	// RoundLen holds each connection's ops per round. The loops wait
	// for each other at every round boundary.
	RoundLen []int `json:"round_len"`
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"qx-sync", "wide-sync", "tenant-mix"}

// Seed ranges. Timed fresh seeds lie in [1, seedSplit] and warm-up and
// hot-set seeds above it, so no warm-up request can turn a timed
// fresh-seed request into a result-cache hit.
const seedSplit = 1 << 40

// requestStream seeds the stream request seeds are drawn from. It is
// fixed, not the workload seed: every workload seed runs the same
// multiset of requests, in its own order, so the work done and pst_mean
// are the same in every run and only the interleaving varies.
const requestStream = 20190612

// gen draws a workload: request seeds and the canonical rounds from the
// fixed request stream, their order from the workload seed.
type gen struct {
	req   *rand.Rand
	order *rand.Rand
	used  map[int64]bool
}

func (g *gen) draw(lo int64) int64 {
	for {
		v := lo + 1 + g.req.Int63n(seedSplit-1)
		if !g.used[v] {
			g.used[v] = true
			return v
		}
	}
}

// fresh returns a timed seed; warm returns a warm-up or hot-set seed.
// Neither repeats within a workload.
func (g *gen) fresh() int64 { return g.draw(0) }
func (g *gen) warm() int64  { return g.draw(seedSplit) }

// deck deals items in shuffled cycles, so over a run every item comes
// up equally often.
type deck[T any] struct {
	rng   *rand.Rand
	items []T
	order []int
}

func newDeck[T any](rng *rand.Rand, items []T) *deck[T] { return &deck[T]{rng: rng, items: items} }

func (d *deck[T]) next() T {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(len(d.items))
	}
	i := d.order[0]
	d.order = d.order[1:]
	return d.items[i]
}

// combo is one (machine, benchmark, policy) request shape.
type combo struct{ machine, bench, policy string }

func combos(machines, benches, policies []string) []combo {
	var out []combo
	for _, m := range machines {
		for _, b := range benches {
			for _, p := range policies {
				out = append(out, combo{m, b, p})
			}
		}
	}
	return out
}

func (c combo) req(shots int, seed int64) *api.MitigateRequest {
	return &api.MitigateRequest{Machine: c.machine, Benchmark: c.bench, Policy: c.policy, Shots: shots, Seed: seed}
}

func mitigateOp(r *api.MitigateRequest) Op { return Op{Kind: opMitigate, Mitigate: r} }

func jobOp(r *api.MitigateRequest) Op { return Op{Kind: opJob, Mitigate: r} }

var policies = []string{"baseline", "sim", "aim"}

// Per-workload sizes. A timed sequence is a whole number of rounds: the
// larger of the minimum and seconds/roundSeconds, where roundSeconds is
// a round's wall time measured on a 2-vCPU x86-64 host. The request
// count therefore depends on --seconds only, never on how fast this
// particular run goes.
const (
	qxShots         = 3000
	qxRoundSeconds  = 0.8 // one round = 24 requests
	qxMinRounds     = 5   // 120 mitigates: p90 has ten samples beyond it
	wideShots       = 512
	wideRoundSecs   = 1.5 // one round = 9 requests
	wideMinRounds   = 3   // 27 mitigates: p50 has ten samples beyond it
	mixHotShots     = 1024
	mixMissShots    = 2048
	mixJobShots     = 512
	mixRoundSeconds = 0.27 // one round = 20 tenant-A ops + 10 tenant-B ops
	mixMinRounds    = 8    // 160 tenant-A mitigates
	mixForces       = 3
)

func rounds(seconds int, roundSeconds float64, least int) int {
	return max(least, int(float64(seconds)/roundSeconds+0.5))
}

// Generate builds the named workload for a seed and a run length.
func Generate(name string, seed int64, seconds int) (*Workload, error) {
	g := &gen{
		req:   rand.New(rand.NewSource(requestStream)),
		order: rand.New(rand.NewSource(seed)),
		used:  map[int64]bool{},
	}
	switch name {
	case "qx-sync":
		return genQXSync(g, seconds), nil
	case "wide-sync":
		return genWideSync(g, seconds), nil
	case "tenant-mix":
		return genTenantMix(g, seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// ordered lays canonical rounds (rounds[r][conn]) out as one stream per
// connection, in an order drawn from the workload seed: the rounds are
// permuted, and so are the ops inside each round. Every round holds the
// same number of ops per connection.
func (g *gen) ordered(w *Workload, rounds [][][]Op) {
	streams := make([][]Op, len(rounds[0]))
	for _, ops := range rounds[0] {
		w.RoundLen = append(w.RoundLen, len(ops))
	}
	for _, r := range g.order.Perm(len(rounds)) {
		for c, ops := range rounds[r] {
			ops = append([]Op(nil), ops...)
			g.order.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			streams[c] = append(streams[c], ops...)
		}
	}
	w.Timed = streams
}

// syncRounds makes n rounds holding every combo once, each request
// with a fresh seed, so the result cache never hits and every run sees
// the same mix.
func (g *gen) syncRounds(w *Workload, cs []combo, shots, n int) {
	rounds := make([][][]Op, n)
	for r := range rounds {
		var ops []Op
		for _, c := range cs {
			ops = append(ops, mitigateOp(c.req(shots, g.fresh())))
		}
		rounds[r] = [][]Op{ops}
	}
	g.ordered(w, rounds)
}

// qx-sync: the 5-qubit machines, where the backend runs one noisy
// trajectory per shot, so backend and core do almost all the work.
func genQXSync(g *gen, seconds int) *Workload {
	machines := []string{"ibmqx2", "ibmqx4"}
	cs := combos(machines, []string{"bv-4A", "bv-4B", "qaoa-4A", "qaoa-4B"}, policies)
	w := &Workload{Name: "qx-sync", Tenants: []string{""}}
	for _, m := range machines {
		// Width 5 serves bv-4A/4B (4 bits plus the ancilla), width 4 the
		// qaoa-4 pair; both are brute-force profiles.
		w.Profiles = append(w.Profiles,
			api.CharacterizeRequest{Machine: m, Qubits: 5},
			api.CharacterizeRequest{Machine: m, Qubits: 4})
	}
	var warm []Op
	for _, c := range combos(machines, []string{"bv-4A"}, policies) {
		warm = append(warm, mitigateOp(c.req(qxShots, g.warm())))
	}
	w.Warmup = [][]Op{warm}
	g.syncRounds(w, cs, qxShots, rounds(seconds, qxRoundSeconds, qxMinRounds))
	return w
}

// wide-sync: the 14-qubit machine, 32 shots per trajectory, where time
// goes to statevector kernels and SWAP-routed placement.
func genWideSync(g *gen, seconds int) *Workload {
	const machine = "ibmq-melbourne"
	cs := combos([]string{machine}, []string{"bv-6", "bv-7", "qaoa-6"}, policies)
	w := &Workload{Name: "wide-sync", Tenants: []string{""}}
	// AWCT profiles for the three output widths: bv-6 and bv-7 carry an
	// ancilla (7 and 8 bits), qaoa-6 has 6.
	for _, q := range []int{6, 7, 8} {
		w.Profiles = append(w.Profiles, api.CharacterizeRequest{Machine: machine, Qubits: q, Method: "awct"})
	}
	var warm []Op
	for _, c := range combos([]string{machine}, []string{"bv-6"}, policies) {
		warm = append(warm, mitigateOp(c.req(wideShots, g.warm())))
	}
	w.Warmup = [][]Op{warm}
	g.syncRounds(w, cs, wideShots, rounds(seconds, wideRoundSecs, wideMinRounds))
	return w
}

// tenant-mix: two tenants on one connection each, at low shot budgets,
// so server, rescache, profilestore, jobs and JSON handling dominate.
//
// Tenant A sends sync mitigates. Each round of 20 holds 3 bv hits, 3
// qaoa-4A hits, 9 qaoa-4B hits and 5 fresh-seed misses. These are four
// latency modes (about 0.7 ms, 2-3 ms, 6-9 ms and a median of 19 ms on
// a 2-vCPU host), stacked so that p50 falls in the middle of the
// qaoa-4B hits (30-75%) and p90 in the middle of the misses (75-100%),
// never on a boundary between modes.
//
// Tenant B, per round of 10: 3 async AIM jobs replaying A's hot AIM
// requests (they sit in the 25 ms micro-batch window, then hit the
// cache), 1 async SIM job with a fresh seed, 2 warm characterizations,
// 2 paged job listings and 2 paged profile listings. In mixForces rounds
// at fixed positions, a forced re-characterization of ibmqx4's 5-qubit
// profile takes the place of a warm one: it bumps the profile
// generation and invalidates the cached bv AIM results of both tenants.
func genTenantMix(g *gen, seconds int) *Workload {
	const hotMachine = "ibmqx4"
	w := &Workload{Name: "tenant-mix", Tenants: []string{"tenant-a", "tenant-b"}}
	for _, m := range []string{"ibmqx2", "ibmqx4"} {
		w.Profiles = append(w.Profiles,
			api.CharacterizeRequest{Machine: m, Qubits: 5},
			api.CharacterizeRequest{Machine: m, Qubits: 4})
	}
	hot := func(bench string, pols ...string) []*api.MitigateRequest {
		var out []*api.MitigateRequest
		for _, p := range pols {
			out = append(out, combo{hotMachine, bench, p}.req(mixHotShots, g.warm()))
		}
		return out
	}
	bvHot := append(hot("bv-4A", "sim", "aim"), hot("bv-4B", "baseline", "aim")...)
	qaoaAHot := hot("qaoa-4A", "sim", "aim")
	qaoaBHot := hot("qaoa-4B", "baseline", "sim", "aim")
	var aimHot []*api.MitigateRequest
	for _, group := range [][]*api.MitigateRequest{bvHot, qaoaAHot, qaoaBHot} {
		for _, r := range group {
			if r.Policy == "aim" {
				aimHot = append(aimHot, r)
			}
		}
	}
	benches := []string{"bv-4A", "bv-4B", "qaoa-4A", "qaoa-4B"}
	misses := newDeck(g.req, combos([]string{"ibmqx2", "ibmqx4"}, benches, policies))
	simJobs := newDeck(g.req, combos([]string{"ibmqx2", "ibmqx4"}, benches, []string{"sim"}))
	bvDeck, qaoaADeck, qaoaBDeck := newDeck(g.req, bvHot), newDeck(g.req, qaoaAHot), newDeck(g.req, qaoaBHot)
	aimDeck, profDeck := newDeck(g.req, aimHot), newDeck(g.req, w.Profiles)

	// Warm-up primes the hot set on tenant A's connection and runs one
	// async job on tenant B's.
	var warmA []Op
	for _, group := range [][]*api.MitigateRequest{bvHot, qaoaAHot, qaoaBHot} {
		for _, r := range group {
			warmA = append(warmA, mitigateOp(r))
		}
	}
	warmB := []Op{jobOp(combo{hotMachine, "bv-4A", "sim"}.req(mixJobShots, g.warm()))}
	w.Warmup = [][]Op{warmA, warmB}

	n := rounds(seconds, mixRoundSeconds, mixMinRounds)
	rs := make([][][]Op, n)
	for r := range rs {
		var a []Op
		for i := 0; i < 3; i++ {
			a = append(a, mitigateOp(bvDeck.next()), mitigateOp(qaoaADeck.next()))
		}
		for i := 0; i < 9; i++ {
			a = append(a, mitigateOp(qaoaBDeck.next()))
		}
		for i := 0; i < 5; i++ {
			a = append(a, mitigateOp(misses.next().req(mixMissShots, g.fresh())))
		}
		b := []Op{
			jobOp(aimDeck.next()), jobOp(aimDeck.next()), jobOp(aimDeck.next()),
			jobOp(simJobs.next().req(mixJobShots, g.fresh())),
		}
		for i := 0; i < 2; i++ {
			p := profDeck.next()
			b = append(b,
				Op{Kind: opCharacterize, Characterize: &p},
				Op{Kind: opListJobs, Page: 8},
				Op{Kind: opListProfiles, Page: 2})
		}
		rs[r] = [][]Op{a, b}
	}
	// The two loops meet after every round, so they stay in step: each
	// round's mix runs side by side, and neither tenant finishes its
	// sequence alone.
	g.ordered(w, rs)
	force := &api.CharacterizeRequest{Machine: hotMachine, Qubits: 5, Force: true}
	for i := 1; i <= mixForces; i++ {
		round := w.Timed[1][i*n/(mixForces+1)*10:][:10]
		for j := range round {
			if round[j].Kind == opCharacterize {
				round[j] = Op{Kind: opCharacterize, Characterize: force}
				break
			}
		}
	}
	return w
}
