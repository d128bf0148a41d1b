package main

import (
	"math"
	"testing"

	"biasmit/internal/api"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the function must sort
	}
	return xs
}

func TestPercentileTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 50, 10, false}, // rank 10, 9 beyond
		{20, 50, 10, true},  // rank 10, 10 beyond
		{21, 50, 11, true},  // rank 11, 10 beyond
		{99, 90, 90, false}, // rank ceil(89.1) = 90, 9 beyond
		{100, 90, 90, true}, // rank 90, 10 beyond
		{110, 90, 99, true}, // rank 99, 11 beyond
		{1, 50, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []api.TraceSpan{
		{Name: "decode", DurationMS: 0.25},
		{Name: "cache", DurationMS: 0.5},
		{Name: "sample", DurationMS: 6},
		{Name: "serialize", DurationMS: 0.25},
	}
	if got := spanTotal(spans); got != 7 {
		t.Fatalf("spanTotal = %v, want 7", got)
	}
	// 10 ms observed = 7 in spans + 1.5 build + 0.5 place + 1 self.
	if got := selfTime(10, spans, 1.5, 0.5); math.Abs(got-1) > 1e-12 {
		t.Errorf("selfTime = %v, want 1", got)
	}
	// A cache hit does no placement; its self time keeps that share.
	if got := selfTime(10, spans, 1.5, 0); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("selfTime without placement = %v, want 1.5", got)
	}
}

// The harness refuses to report metrics BENCHMARK.json does not declare.
func TestCheckContract(t *testing.T) {
	path := "../BENCHMARK.json"
	ok := map[string]metric{
		"setup_s":        {1, "s"},
		"cpu_ms_per_req": {1, "ms"},
		"pst_mean":       {1, "ratio"},
		"rss_p50_mb":     {1, "MB"},
	}
	if err := checkContract(path, false, ok); err != nil {
		t.Fatal(err)
	}
	ok["rss_p50_mb"] = metric{1, "KB"}
	if err := checkContract(path, false, ok); err == nil {
		t.Error("a wrong unit passed")
	}
	delete(ok, "rss_p50_mb")
	if err := checkContract(path, false, ok); err == nil {
		t.Error("a missing metric passed")
	}
}
