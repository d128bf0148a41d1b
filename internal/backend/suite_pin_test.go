package backend_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/experiments"
)

// TestSuiteStreamPinned pins the trajectory stream of the melbourne suite
// benchmarks as the daemon and the experiments package place them. These
// circuits touch 6–8 of the 14 device qubits, so the backend runs them
// on a compacted register; the digests were recorded while every
// trajectory still evolved all 14 qubits, so they hold only while the
// compacted run stays stream-identical to the full-width one, at the
// default ShotsPerTrajectory, sequential and across workers. Recorded on
// amd64 (see TestTrajectoryStreamPinned).
func TestSuiteStreamPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	want := map[string]string{
		"bv-6/inv=0000000/full-noise/w1":       "79a644af36776821",
		"bv-6/inv=0000000/full-noise/w4":       "bbcd15de8a5cfdc6",
		"bv-6/inv=0000000/no-readout/w1":       "f1410d59c7838f6b",
		"bv-6/inv=0000000/no-readout/w4":       "95609473939bb3b7",
		"bv-6/inv=0000000/no-gate-noise/w1":    "3fd43b6d6e241689",
		"bv-6/inv=0000000/no-gate-noise/w4":    "0db7aca7752e7a17",
		"bv-6/inv=0000000/no-decay/w1":         "7af084067c7bc41e",
		"bv-6/inv=0000000/no-decay/w4":         "954dbc74c38a7a55",
		"bv-6/inv=0000000/all-off/w1":          "51c5345eb1f4ec46",
		"bv-6/inv=0000000/all-off/w4":          "51c5345eb1f4ec46",
		"bv-6/inv=0000000/schedule-aware/w1":   "7ddc95120f6b4166",
		"bv-6/inv=0000000/schedule-aware/w4":   "011714d7f4f326ca",
		"bv-6/inv=0000000/idle-inversion/w1":   "1cae71a23fdefed7",
		"bv-6/inv=0000000/idle-inversion/w4":   "8ddc46d00d656be1",
		"bv-6/inv=1111111/full-noise/w1":       "7f22d27e8740349a",
		"bv-6/inv=1111111/full-noise/w4":       "676503805bf42239",
		"bv-6/inv=1111111/no-readout/w1":       "9015e57544976755",
		"bv-6/inv=1111111/no-readout/w4":       "d58a69f27697034c",
		"bv-6/inv=1111111/no-gate-noise/w1":    "49f2b90bf2420056",
		"bv-6/inv=1111111/no-gate-noise/w4":    "843d3a9a8c9b8b12",
		"bv-6/inv=1111111/no-decay/w1":         "417dc4dc41ecad65",
		"bv-6/inv=1111111/no-decay/w4":         "f3d00b25ce5e2713",
		"bv-6/inv=1111111/all-off/w1":          "d128df206dfd5aa3",
		"bv-6/inv=1111111/all-off/w4":          "d128df206dfd5aa3",
		"bv-6/inv=1111111/schedule-aware/w1":   "e1574682ee7300f1",
		"bv-6/inv=1111111/schedule-aware/w4":   "2dcd842b911c0ed7",
		"bv-6/inv=1111111/idle-inversion/w1":   "129b4c46fc898843",
		"bv-6/inv=1111111/idle-inversion/w4":   "5a9a38462814c36c",
		"bv-7/inv=00000000/full-noise/w1":      "b7916d398400ad61",
		"bv-7/inv=00000000/full-noise/w4":      "9afa801569cb2ed8",
		"bv-7/inv=00000000/no-readout/w1":      "6a1a2579c73824bc",
		"bv-7/inv=00000000/no-readout/w4":      "aaf7851a04a9177a",
		"bv-7/inv=00000000/no-gate-noise/w1":   "322de2cdaf887c84",
		"bv-7/inv=00000000/no-gate-noise/w4":   "a54b7fd01fba06e3",
		"bv-7/inv=00000000/no-decay/w1":        "f5f5f740efbb23f1",
		"bv-7/inv=00000000/no-decay/w4":        "3688dcc2e84a328a",
		"bv-7/inv=00000000/all-off/w1":         "6bfe35b3af48ba1e",
		"bv-7/inv=00000000/all-off/w4":         "6bfe35b3af48ba1e",
		"bv-7/inv=00000000/schedule-aware/w1":  "8c6ac6ee438c1f02",
		"bv-7/inv=00000000/schedule-aware/w4":  "9cf3e9cb2cd2624c",
		"bv-7/inv=00000000/idle-inversion/w1":  "f12b76f422cd68b8",
		"bv-7/inv=00000000/idle-inversion/w4":  "e84c3d0815d9aaf7",
		"bv-7/inv=11111111/full-noise/w1":      "e1097a73c70dc788",
		"bv-7/inv=11111111/full-noise/w4":      "3749263c95caef6f",
		"bv-7/inv=11111111/no-readout/w1":      "211794b1caf96e65",
		"bv-7/inv=11111111/no-readout/w4":      "6f0c6ae1a04fd609",
		"bv-7/inv=11111111/no-gate-noise/w1":   "bf2043b17681e156",
		"bv-7/inv=11111111/no-gate-noise/w4":   "59c48775f19bb648",
		"bv-7/inv=11111111/no-decay/w1":        "681b898fe86656a9",
		"bv-7/inv=11111111/no-decay/w4":        "7975d586e21f7515",
		"bv-7/inv=11111111/all-off/w1":         "00deec2fe6865a57",
		"bv-7/inv=11111111/all-off/w4":         "00deec2fe6865a57",
		"bv-7/inv=11111111/schedule-aware/w1":  "0f320e8d6d326c20",
		"bv-7/inv=11111111/schedule-aware/w4":  "d6b0876d381dba24",
		"bv-7/inv=11111111/idle-inversion/w1":  "da955e29568dc196",
		"bv-7/inv=11111111/idle-inversion/w4":  "d4e7528a1c0a2ce0",
		"qaoa-6/inv=000000/full-noise/w1":      "9c6dcb49dedf11ef",
		"qaoa-6/inv=000000/full-noise/w4":      "179c10bba9a7e29e",
		"qaoa-6/inv=000000/no-readout/w1":      "ccb70a328c15c0da",
		"qaoa-6/inv=000000/no-readout/w4":      "f3eefb3c476bf22e",
		"qaoa-6/inv=000000/no-gate-noise/w1":   "4c40040a837e987e",
		"qaoa-6/inv=000000/no-gate-noise/w4":   "8097bd94224dc53d",
		"qaoa-6/inv=000000/no-decay/w1":        "ac35c4e96562bc5e",
		"qaoa-6/inv=000000/no-decay/w4":        "78d69f547b4bf388",
		"qaoa-6/inv=000000/all-off/w1":         "eb193894720f75ee",
		"qaoa-6/inv=000000/all-off/w4":         "7987aaa7cc7a67f0",
		"qaoa-6/inv=000000/schedule-aware/w1":  "bd70c269c5cb5265",
		"qaoa-6/inv=000000/schedule-aware/w4":  "fd0d8b10c9c18e0b",
		"qaoa-6/inv=000000/idle-inversion/w1":  "58bba29fdda9f9ac",
		"qaoa-6/inv=000000/idle-inversion/w4":  "b9bde88a992c88aa",
		"qaoa-6/inv=111111/full-noise/w1":      "c0e2906475a9b550",
		"qaoa-6/inv=111111/full-noise/w4":      "412db6d2ae6d28f8",
		"qaoa-6/inv=111111/no-readout/w1":      "7a69ef2ccf6c0802",
		"qaoa-6/inv=111111/no-readout/w4":      "f975b06271c6f493",
		"qaoa-6/inv=111111/no-gate-noise/w1":   "775f058fa26b1df3",
		"qaoa-6/inv=111111/no-gate-noise/w4":   "4c16bd6cb2c79945",
		"qaoa-6/inv=111111/no-decay/w1":        "05769b85baa2d38c",
		"qaoa-6/inv=111111/no-decay/w4":        "3182498e42300b5e",
		"qaoa-6/inv=111111/all-off/w1":         "eb193894720f75ee",
		"qaoa-6/inv=111111/all-off/w4":         "7987aaa7cc7a67f0",
		"qaoa-6/inv=111111/schedule-aware/w1":  "9a9edf801e844dd4",
		"qaoa-6/inv=111111/schedule-aware/w4":  "0202de904880223b",
		"qaoa-6/inv=111111/idle-inversion/w1":  "f32c15bea1402fa7",
		"qaoa-6/inv=111111/idle-inversion/w4":  "bfcb40a0f8e34612",
		"qaoa-7/inv=0000000/full-noise/w1":     "34a16a74c4e0df50",
		"qaoa-7/inv=0000000/full-noise/w4":     "7cf0fc180fc719c1",
		"qaoa-7/inv=0000000/no-readout/w1":     "b6be91e3c671828e",
		"qaoa-7/inv=0000000/no-readout/w4":     "370342bb749d401d",
		"qaoa-7/inv=0000000/no-gate-noise/w1":  "1f89e8ae7f46a26c",
		"qaoa-7/inv=0000000/no-gate-noise/w4":  "86a5bf8d24eae1e8",
		"qaoa-7/inv=0000000/no-decay/w1":       "06997b13af4206a3",
		"qaoa-7/inv=0000000/no-decay/w4":       "0d08cdebc949532f",
		"qaoa-7/inv=0000000/all-off/w1":        "e04265c18f21923c",
		"qaoa-7/inv=0000000/all-off/w4":        "b8821216ee710c5e",
		"qaoa-7/inv=0000000/schedule-aware/w1": "20bff5deaa1b7f35",
		"qaoa-7/inv=0000000/schedule-aware/w4": "68be095b54bbf119",
		"qaoa-7/inv=0000000/idle-inversion/w1": "f915d7bc3ed1be07",
		"qaoa-7/inv=0000000/idle-inversion/w4": "d52cc0505f1b93b2",
		"qaoa-7/inv=1111111/full-noise/w1":     "594ca782daa90f46",
		"qaoa-7/inv=1111111/full-noise/w4":     "daef286ff9c5ea4a",
		"qaoa-7/inv=1111111/no-readout/w1":     "da3f4fc0f9e646b5",
		"qaoa-7/inv=1111111/no-readout/w4":     "6814186c282b9bbf",
		"qaoa-7/inv=1111111/no-gate-noise/w1":  "cf379e9794efb16c",
		"qaoa-7/inv=1111111/no-gate-noise/w4":  "523aead4b70c79da",
		"qaoa-7/inv=1111111/no-decay/w1":       "1cf9e144458cfe00",
		"qaoa-7/inv=1111111/no-decay/w4":       "10b68ff8307761da",
		"qaoa-7/inv=1111111/all-off/w1":        "e04265c18f21923c",
		"qaoa-7/inv=1111111/all-off/w4":        "b8821216ee710c5e",
		"qaoa-7/inv=1111111/schedule-aware/w1": "5bb06a193f615ced",
		"qaoa-7/inv=1111111/schedule-aware/w4": "2e248bbcdfdbedcf",
		"qaoa-7/inv=1111111/idle-inversion/w1": "ce64afbf92204a25",
		"qaoa-7/inv=1111111/idle-inversion/w4": "fb09f8327b0dd953",
	}
	dev := device.IBMQMelbourne()
	for _, name := range []string{"bv-6", "bv-7", "qaoa-6", "qaoa-7"} {
		bench, err := experiments.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		job, err := core.NewJob(bench.Circuit, core.NewMachine(dev))
		if err != nil {
			t.Fatal(err)
		}
		w := job.Width()
		for _, inv := range []bitstring.Bits{bitstring.Zeros(w), bitstring.Ones(w)} {
			c := job.Plan.WithInversion(inv)
			for _, ab := range backend.FastPathAblations() {
				for _, workers := range []int{1, 4} {
					opt := ab.Opt
					opt.Shots = 512
					opt.Seed = 2019
					opt.Workers = workers
					counts, err := backend.RunContext(context.Background(), c, dev, opt)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/inv=%s/%s/w%d", name, inv, ab.Name, workers)
					if got := backend.CountsDigest(counts); got != want[label] {
						t.Errorf("%s: trajectory stream digest %s, pinned %s", label, got, want[label])
					}
				}
			}
		}
	}
}
