package main

import (
	"strings"
	"testing"

	"biasmit/internal/api"
)

func answer(elapsed float64, hit bool) *api.MitigateResponse {
	return &api.MitigateResponse{
		Envelope: api.Envelope{APIVersion: "v1", TraceID: "x"},
		Machine:  "ibmqx4", Benchmark: "bv-4A", Policy: "sim", ServedPolicy: "sim",
		Shots: 100, Seed: 3,
		Outcomes:  []api.OutcomeCount{{Outcome: "10111", Count: 60}, {Outcome: "00111", Count: 30}},
		CacheHit:  hit,
		ElapsedMS: elapsed,
	}
}

func TestCheckMitigate(t *testing.T) {
	req := &api.MitigateRequest{Machine: "ibmqx4", Benchmark: "bv-4A", Policy: "sim", Shots: 100, Seed: 3}
	if err := checkMitigate(req, answer(1, false)); err != nil {
		t.Fatal(err)
	}
	bad := map[string]func(*api.MitigateResponse){
		"served":   func(r *api.MitigateResponse) { r.ServedPolicy = "baseline" },
		"tier":     func(r *api.MitigateResponse) { r.BrownoutTier = 1 },
		"degraded": func(r *api.MitigateResponse) { r.Degraded = true },
		"count":    func(r *api.MitigateResponse) { r.Outcomes[0].Count = 101 },
		"sum":      func(r *api.MitigateResponse) { r.Outcomes[1].Count = 41 },
		"echo":     func(r *api.MitigateResponse) { r.Seed = 4 },
	}
	for name, mutate := range bad {
		r := answer(1, false)
		mutate(r)
		if err := checkMitigate(req, r); err == nil {
			t.Errorf("%s: a bad answer passed", name)
		}
	}
}

func TestCheckerHitsAndRecomputations(t *testing.T) {
	req := &api.MitigateRequest{Machine: "ibmqx4", Benchmark: "bv-4A", Policy: "sim", Shots: 100, Seed: 3}
	c := newChecker()
	// Two computations of one request may differ in elapsed time; a hit
	// replays one of them exactly.
	for _, r := range []*api.MitigateResponse{answer(1, false), answer(2, false), answer(2, true)} {
		if err := c.add(1, req, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.finish(); err != nil {
		t.Fatal(err)
	}

	// A hit whose bytes no computation of its daemon returned fails.
	if err := c.add(2, req, answer(2, true)); err != nil {
		t.Fatal(err)
	}
	if err := c.finish(); err == nil || !strings.Contains(err.Error(), "cache hit") {
		t.Errorf("finish = %v, want a cache-hit error", err)
	}

	// A different answer to the same request fails at once.
	other := answer(1, false)
	other.Outcomes[0].Count = 59
	if err := c.add(1, req, other); err == nil {
		t.Error("a differing answer passed")
	}
}
