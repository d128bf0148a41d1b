package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"biasmit/internal/circuit"
	"biasmit/internal/dist"
)

// EDM implements a lightweight Ensemble of Diverse Mappings, the paper's
// concurrent MICRO'19 work ([27], Tannu & Qureshi, "Ensemble of Diverse
// Mappings"): instead of running every trial on one qubit mapping —
// which makes all trials share that mapping's correlated mistakes — the
// trial budget is split across several distinct mappings and the output
// logs are merged. Both EDM and SIM/AIM share the philosophy that
// repeating an identical program correlates its errors; EDM diversifies
// *where* the program runs, Invert-and-Measure diversifies *which state
// is measured*. The two compose (see ExperimentEDM in the benchmarks).

// EDMResult carries the merged output and the per-mapping artifacts.
type EDMResult struct {
	Merged  *dist.Counts
	Layouts [][]int
	PerMap  []*dist.Counts
}

// DiverseLayouts produces up to k distinct initial layouts for c on the
// machine: the variability-aware layout first, then alternatives drawn
// from quality-ranked physical qubits with seeded shuffles. All layouts
// are injective; routing makes any of them executable.
func DiverseLayouts(c *circuit.Circuit, m *Machine, k int, seed int64) ([][]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: need at least one mapping, got %d", k)
	}
	base, err := NewJob(c, m)
	if err != nil {
		return nil, err
	}
	layouts := [][]int{append([]int(nil), base.Plan.InitialLayout...)}
	seen := map[string]bool{layoutKey(layouts[0]): true}

	dev := m.Device
	// Candidate physical qubits ranked by readout quality.
	model := dev.ReadoutModel()
	candidates := make([]int, dev.NumQubits)
	for q := range candidates {
		candidates[q] = q
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		return model.PerQubit[candidates[i]].Average() < model.PerQubit[candidates[j]].Average()
	})
	// Prefer the best max(n, k+n-1) qubits as the shuffle pool so
	// alternates stay on reasonable hardware.
	pool := len(candidates)
	if want := c.NumQubits + k; want < pool {
		pool = want
	}
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; len(layouts) < k && attempt < 64*k; attempt++ {
		perm := rng.Perm(pool)
		layout := make([]int, c.NumQubits)
		for i := 0; i < c.NumQubits; i++ {
			layout[i] = candidates[perm[i]]
		}
		key := layoutKey(layout)
		if seen[key] {
			continue
		}
		seen[key] = true
		layouts = append(layouts, layout)
	}
	if len(layouts) < k {
		return nil, fmt.Errorf("core: only found %d distinct mappings of %d requested", len(layouts), k)
	}
	return layouts, nil
}

func layoutKey(layout []int) string {
	b := make([]byte, 0, len(layout)*3)
	for _, q := range layout {
		b = append(b, byte(q), ',')
	}
	return string(b)
}

// EDM executes the circuit across the given mappings, splitting the
// trial budget equally and merging the logical output logs.
func EDM(c *circuit.Circuit, m *Machine, layouts [][]int, shots int, seed int64) (*EDMResult, error) {
	if len(layouts) == 0 {
		return nil, fmt.Errorf("core: EDM needs at least one mapping")
	}
	if shots < len(layouts) {
		return nil, fmt.Errorf("core: %d shots cannot cover %d mappings", shots, len(layouts))
	}
	res := &EDMResult{Merged: dist.NewCounts(c.NumQubits)}
	for i, n := range splitShots(shots, len(layouts)) {
		job, err := NewJobWithLayout(c, m, layouts[i])
		if err != nil {
			return nil, fmt.Errorf("core: EDM mapping %v: %w", layouts[i], err)
		}
		counts, err := job.Baseline(n, deriveSeed(seed, 3000+i))
		if err != nil {
			return nil, err
		}
		res.Layouts = append(res.Layouts, append([]int(nil), layouts[i]...))
		res.PerMap = append(res.PerMap, counts)
		res.Merged.Merge(counts)
	}
	return res, nil
}

// EDMWithSIM composes the two MICRO'19 techniques: each mapping's share
// of the budget runs as a four-mode SIM, diversifying both the physical
// placement and the measured state.
func EDMWithSIM(c *circuit.Circuit, m *Machine, layouts [][]int, shots int, seed int64) (*EDMResult, error) {
	if len(layouts) == 0 {
		return nil, fmt.Errorf("core: EDM needs at least one mapping")
	}
	strings, err := StandardInversionStrings(c.NumQubits, 4)
	if err != nil {
		return nil, err
	}
	if shots < len(layouts)*len(strings) {
		return nil, fmt.Errorf("core: %d shots cannot cover %d mappings × %d modes", shots, len(layouts), len(strings))
	}
	res := &EDMResult{Merged: dist.NewCounts(c.NumQubits)}
	for i, n := range splitShots(shots, len(layouts)) {
		job, err := NewJobWithLayout(c, m, layouts[i])
		if err != nil {
			return nil, fmt.Errorf("core: EDM mapping %v: %w", layouts[i], err)
		}
		sim, err := SIMContext(context.TODO(), job, strings, n, deriveSeed(seed, 4000+i))
		if err != nil {
			return nil, err
		}
		res.Layouts = append(res.Layouts, append([]int(nil), layouts[i]...))
		res.PerMap = append(res.PerMap, sim.Merged)
		res.Merged.Merge(sim.Merged)
	}
	return res, nil
}
