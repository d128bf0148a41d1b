package backend

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"biasmit/internal/dist"
)

// countsDigest is a stable fingerprint of a histogram: SHA-256 over its
// outcomes in sorted order with their counts, truncated to 16 hex digits.
func countsDigest(c *dist.Counts) string {
	h := sha256.New()
	for _, o := range c.Outcomes() {
		fmt.Fprintf(h, "%s:%d\n", o, c.Get(o))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestTrajectoryStreamPinned pins the trajectory engine's random stream.
// The fast-vs-naive suites compare two paths that share the noise
// placement, so a change to the placement itself (which channel follows
// which op, with which probability, in which order) would move both
// paths together and pass them. These digests were recorded before the
// placement was shared with the exact engine; any drift in the order or
// number of rng draws changes them. They were recorded on amd64; other
// architectures may fuse multiply-adds, which moves amplitudes by an ulp
// and with them the sampled stream.
func TestTrajectoryStreamPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	want := map[string]string{
		"ibmqx4-5q/full-noise":         "c059b5f9be62cef2",
		"ibmqx4-5q/no-readout":         "5ddeeaa62c512191",
		"ibmqx4-5q/no-gate-noise":      "c3970052bc32a158",
		"ibmqx4-5q/no-decay":           "9993dd9b4665be44",
		"ibmqx4-5q/all-off":            "0c4fba6f101a0556",
		"ibmqx4-5q/schedule-aware":     "e9d5dee0217e5f3f",
		"ibmqx4-5q/idle-inversion":     "9d7a6ba6fe020e44",
		"melbourne-14q/full-noise":     "82bcc40a8de4c89b",
		"melbourne-14q/no-readout":     "0e3947670db87f83",
		"melbourne-14q/no-gate-noise":  "cb855a2520428df3",
		"melbourne-14q/no-decay":       "d247e0742c10fdd4",
		"melbourne-14q/all-off":        "00f93315437a9f3f",
		"melbourne-14q/schedule-aware": "8c0b505cb6bee491",
		"melbourne-14q/idle-inversion": "cb37a066fc9b8f87",
	}
	for _, fc := range fastPathCases() {
		for _, ab := range fastPathAblations() {
			opt := ab.opt
			opt.Shots = 1000
			opt.Seed = 2019
			if fc.dev.NumQubits <= 8 {
				// Explicit, so the run stays on trajectories.
				opt.ShotsPerTrajectory = 1
			}
			counts, err := RunContext(context.Background(), fc.c, fc.dev, opt)
			if err != nil {
				t.Fatal(err)
			}
			label := fc.name + "/" + ab.name
			if got := countsDigest(counts); got != want[label] {
				t.Errorf("%s: trajectory stream digest %s, pinned %s", label, got, want[label])
			}
		}
	}
}
