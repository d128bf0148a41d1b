package biasmit

// Hot-path micro-benchmarks of the PR 4 performance layer, in fast and
// naive form at each width (bodies in internal/benchsuite, shared with
// cmd/bench which gates CI on them):
//
//	go test -bench='RunShots|RunExactSIM|Sample|ReadoutApply' -benchmem .

import (
	"fmt"
	"testing"

	"biasmit/internal/benchsuite"
)

func BenchmarkRunShots(b *testing.B) {
	for _, w := range benchsuite.Widths {
		for _, mode := range []string{"fast", "naive"} {
			b.Run(fmt.Sprintf("width=%d/%s", w, mode), func(b *testing.B) {
				benchsuite.RunShots(b, w, mode == "naive")
			})
		}
	}
}

func BenchmarkRunShotsTrialLoop(b *testing.B) {
	for _, mode := range []string{"fast", "naive"} {
		b.Run(fmt.Sprintf("width=16/%s", mode), func(b *testing.B) {
			benchsuite.RunShotsTrialLoop(b, 16, mode == "naive")
		})
	}
}

func BenchmarkRunShotsParallel(b *testing.B) {
	for _, mode := range []string{"fast", "naive"} {
		b.Run(fmt.Sprintf("width=16/%s", mode), func(b *testing.B) {
			benchsuite.RunShotsParallel(b, 16, mode == "naive")
		})
	}
}

func BenchmarkRunExactSIM(b *testing.B) { benchsuite.RunExactSIM(b) }

func BenchmarkSample(b *testing.B) {
	for _, w := range benchsuite.Widths {
		for _, mode := range []string{"cdf", "linear"} {
			b.Run(fmt.Sprintf("width=%d/%s", w, mode), func(b *testing.B) {
				benchsuite.Sample(b, w, mode == "cdf")
			})
		}
	}
}

func BenchmarkReadoutApply(b *testing.B) {
	for _, mode := range []string{"compiled", "naive"} {
		b.Run(mode, func(b *testing.B) {
			benchsuite.ReadoutApply(b, mode == "compiled")
		})
	}
}
