package main

import (
	"math"
	"sort"

	"biasmit/internal/api"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs, and whether at least minBeyond samples lie beyond it. With n
// samples the nearest rank is ceil(p/100*n), and n-rank samples lie
// beyond it, so p50 needs 20 samples and p90 needs 100.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spanTotal sums a daemon trace's span durations. The daemon's spans
// are sequential stages of one request, so their sum is the time they
// cover.
func spanTotal(spans []api.TraceSpan) float64 {
	sum := 0.0
	for _, sp := range spans {
		sum += sp.DurationMS
	}
	return sum
}

// selfTime is the part of a client-observed latency that neither the
// daemon's spans nor the replayed benchmark build and placement
// account for: HTTP and JSON handling outside the decode and serialize
// spans, routing, and the loopback round trip.
func selfTime(latencyMS float64, spans []api.TraceSpan, buildMS, placeMS float64) float64 {
	return latencyMS - spanTotal(spans) - buildMS - placeMS
}
