package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"biasmit/internal/backend"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/experiments"
)

// policyDigest fingerprints a merged histogram: SHA-256 over its outcomes
// in sorted order with their counts, truncated to 16 hex digits (the
// digest backend's stream pins use).
func policyDigest(c *dist.Counts) string {
	h := sha256.New()
	for _, o := range c.Outcomes() {
		fmt.Fprintf(h, "%s:%d\n", o, c.Get(o))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// readoutRBMS is a fixed AIM profile for the pin: each logical state's
// strength is the product of its bits' correct-read probabilities at the
// qubits the plan measures them on, so the pin does not depend on a
// profiler run.
func readoutRBMS(t *testing.T, job *core.Job) core.RBMS {
	t.Helper()
	per := job.Machine.Device.ReadoutModel().PerQubit
	w := job.Width()
	strength := make([]float64, 1<<uint(w))
	for i := range strength {
		s := 1.0
		for lq := 0; lq < w; lq++ {
			r := per[job.Plan.FinalLayout[lq]]
			if i&(1<<uint(lq)) != 0 {
				s *= 1 - r.P10
			} else {
				s *= 1 - r.P01
			}
		}
		strength[i] = s
	}
	rbms, err := core.NewRBMS(w, strength)
	if err != nil {
		t.Fatal(err)
	}
	return rbms
}

// TestPolicyStreamPinned pins SIM's and AIM's merged counts on the
// 5-qubit devices, where most groups take the exact engine and the
// small AIM groups at 512 shots take trajectories. The digests were
// recorded while every group evolved its whole circuit alone, so they
// hold only while SIM and AIM groups that share the placed program's
// evolution stay byte-identical to groups that do not, at one worker
// and at four. Recorded on amd64 (see backend's
// TestTrajectoryStreamPinned).
func TestPolicyStreamPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	want := map[string]string{
		"sim/ibmqx2/bv-4A/full-noise/3000":       "20cd7569133d5262",
		"aim/ibmqx2/bv-4A/full-noise/3000":       "a36b4b90291b5758",
		"sim/ibmqx2/bv-4A/full-noise/512":        "eb10987e2f16447b",
		"aim/ibmqx2/bv-4A/full-noise/512":        "3106eb9534b99593",
		"sim/ibmqx2/bv-4A/no-readout/3000":       "6111add6b638fe4d",
		"aim/ibmqx2/bv-4A/no-readout/3000":       "45e0866668b1cac4",
		"sim/ibmqx2/bv-4A/no-readout/512":        "43135e3c63fbd915",
		"aim/ibmqx2/bv-4A/no-readout/512":        "77ac7aecb1328b4d",
		"sim/ibmqx2/bv-4A/no-gate-noise/3000":    "ed7f05f900305ef3",
		"aim/ibmqx2/bv-4A/no-gate-noise/3000":    "3b5e8ea92e5ea7e0",
		"sim/ibmqx2/bv-4A/no-gate-noise/512":     "73c2bf7a243e849f",
		"aim/ibmqx2/bv-4A/no-gate-noise/512":     "9ee46796dd87e58a",
		"sim/ibmqx2/bv-4A/no-decay/3000":         "104ec483c6215134",
		"aim/ibmqx2/bv-4A/no-decay/3000":         "4325860fbe210565",
		"sim/ibmqx2/bv-4A/no-decay/512":          "06a3362772b16042",
		"aim/ibmqx2/bv-4A/no-decay/512":          "0c553d5271ae20a0",
		"sim/ibmqx2/bv-4A/schedule-aware/3000":   "c526d97f2f9abac6",
		"aim/ibmqx2/bv-4A/schedule-aware/3000":   "7701560cac6a284e",
		"sim/ibmqx2/bv-4A/schedule-aware/512":    "c41e35b053cdd282",
		"aim/ibmqx2/bv-4A/schedule-aware/512":    "a67a492bd5827d57",
		"sim/ibmqx2/bv-4A/idle-inversion/3000":   "9f7819d3c7d180a4",
		"aim/ibmqx2/bv-4A/idle-inversion/3000":   "4da6ca8310676074",
		"sim/ibmqx2/bv-4A/idle-inversion/512":    "2818c93e4217c19d",
		"aim/ibmqx2/bv-4A/idle-inversion/512":    "1cf34b007305b284",
		"sim/ibmqx2/bv-4B/full-noise/3000":       "9a5ae91d354b124c",
		"aim/ibmqx2/bv-4B/full-noise/3000":       "588bed68fbaf3480",
		"sim/ibmqx2/bv-4B/full-noise/512":        "00207b02679905a3",
		"aim/ibmqx2/bv-4B/full-noise/512":        "1ffdaea81762b11f",
		"sim/ibmqx2/bv-4B/no-readout/3000":       "d8077ba81434f3b5",
		"aim/ibmqx2/bv-4B/no-readout/3000":       "2d2668fb7b985ec4",
		"sim/ibmqx2/bv-4B/no-readout/512":        "70f8d868ad0799b2",
		"aim/ibmqx2/bv-4B/no-readout/512":        "554e8d66af2d5f7b",
		"sim/ibmqx2/bv-4B/no-gate-noise/3000":    "37f478bf563a8e45",
		"aim/ibmqx2/bv-4B/no-gate-noise/3000":    "cae5b216e2fa04c8",
		"sim/ibmqx2/bv-4B/no-gate-noise/512":     "4a5e16f9a28753d3",
		"aim/ibmqx2/bv-4B/no-gate-noise/512":     "e9da032f664d345e",
		"sim/ibmqx2/bv-4B/no-decay/3000":         "ac815b3b3d415017",
		"aim/ibmqx2/bv-4B/no-decay/3000":         "23e9f669ec3ce04e",
		"sim/ibmqx2/bv-4B/no-decay/512":          "27fbd5711f3bea47",
		"aim/ibmqx2/bv-4B/no-decay/512":          "bb1541de27071baf",
		"sim/ibmqx2/bv-4B/schedule-aware/3000":   "1779890a4dffdf0b",
		"aim/ibmqx2/bv-4B/schedule-aware/3000":   "2d98ee0c44cb68bd",
		"sim/ibmqx2/bv-4B/schedule-aware/512":    "2c77c186ed5c247f",
		"aim/ibmqx2/bv-4B/schedule-aware/512":    "00698284a94ec464",
		"sim/ibmqx2/bv-4B/idle-inversion/3000":   "0a306a9d1f425bb8",
		"aim/ibmqx2/bv-4B/idle-inversion/3000":   "514051522be54f1f",
		"sim/ibmqx2/bv-4B/idle-inversion/512":    "cda20a01e6e00414",
		"aim/ibmqx2/bv-4B/idle-inversion/512":    "c143dba893b3ef9e",
		"sim/ibmqx2/qaoa-4A/full-noise/3000":     "ccbbd4a5b7f607de",
		"aim/ibmqx2/qaoa-4A/full-noise/3000":     "90dc25e35ad7d3a0",
		"sim/ibmqx2/qaoa-4A/full-noise/512":      "246ec2af69ed880c",
		"aim/ibmqx2/qaoa-4A/full-noise/512":      "d6ef63d6f0443d98",
		"sim/ibmqx2/qaoa-4A/no-readout/3000":     "56d573169e9192f8",
		"aim/ibmqx2/qaoa-4A/no-readout/3000":     "5547301f1052e880",
		"sim/ibmqx2/qaoa-4A/no-readout/512":      "8ff4bd3f0496aeab",
		"aim/ibmqx2/qaoa-4A/no-readout/512":      "71211d9cea67dd9f",
		"sim/ibmqx2/qaoa-4A/no-gate-noise/3000":  "afb54683896cc4a0",
		"aim/ibmqx2/qaoa-4A/no-gate-noise/3000":  "bca35d9736cf9c25",
		"sim/ibmqx2/qaoa-4A/no-gate-noise/512":   "59504b49ef8fd42b",
		"aim/ibmqx2/qaoa-4A/no-gate-noise/512":   "3b1beac61967d1fb",
		"sim/ibmqx2/qaoa-4A/no-decay/3000":       "59718d6a8d59fbd8",
		"aim/ibmqx2/qaoa-4A/no-decay/3000":       "40c005f60cc3aad6",
		"sim/ibmqx2/qaoa-4A/no-decay/512":        "d09b8592bfc048e2",
		"aim/ibmqx2/qaoa-4A/no-decay/512":        "baef40fa14b7b0dd",
		"sim/ibmqx2/qaoa-4A/schedule-aware/3000": "e971e470cc1001f6",
		"aim/ibmqx2/qaoa-4A/schedule-aware/3000": "1f02871401eb0c52",
		"sim/ibmqx2/qaoa-4A/schedule-aware/512":  "3d8db8017eac7461",
		"aim/ibmqx2/qaoa-4A/schedule-aware/512":  "d735326d91313195",
		"sim/ibmqx2/qaoa-4A/idle-inversion/3000": "2e48f4fefa88217e",
		"aim/ibmqx2/qaoa-4A/idle-inversion/3000": "180984977fd3e53e",
		"sim/ibmqx2/qaoa-4A/idle-inversion/512":  "9b497c50bc0cbb87",
		"aim/ibmqx2/qaoa-4A/idle-inversion/512":  "4b6f5cfd5a6d881b",
		"sim/ibmqx2/qaoa-4B/full-noise/3000":     "e5367f1cd6af32a5",
		"aim/ibmqx2/qaoa-4B/full-noise/3000":     "8e5703ff7eddd07d",
		"sim/ibmqx2/qaoa-4B/full-noise/512":      "ceff786bfc11b5eb",
		"aim/ibmqx2/qaoa-4B/full-noise/512":      "d587005d2ed5f543",
		"sim/ibmqx2/qaoa-4B/no-readout/3000":     "433835e1972596b0",
		"aim/ibmqx2/qaoa-4B/no-readout/3000":     "c53e99f9bbd67d2c",
		"sim/ibmqx2/qaoa-4B/no-readout/512":      "aae38ed6bffc43f2",
		"aim/ibmqx2/qaoa-4B/no-readout/512":      "ee37f01e78251398",
		"sim/ibmqx2/qaoa-4B/no-gate-noise/3000":  "7ec63d60ebb38e73",
		"aim/ibmqx2/qaoa-4B/no-gate-noise/3000":  "bc09baa985be888e",
		"sim/ibmqx2/qaoa-4B/no-gate-noise/512":   "d7c42ff11dea1aa0",
		"aim/ibmqx2/qaoa-4B/no-gate-noise/512":   "281b2b826bf84975",
		"sim/ibmqx2/qaoa-4B/no-decay/3000":       "60db5e0a8abafcca",
		"aim/ibmqx2/qaoa-4B/no-decay/3000":       "425280f991bdd6a6",
		"sim/ibmqx2/qaoa-4B/no-decay/512":        "639f36745799fa6f",
		"aim/ibmqx2/qaoa-4B/no-decay/512":        "d204fe4246182719",
		"sim/ibmqx2/qaoa-4B/schedule-aware/3000": "24987de6e6beb949",
		"aim/ibmqx2/qaoa-4B/schedule-aware/3000": "b5000f19a04aab41",
		"sim/ibmqx2/qaoa-4B/schedule-aware/512":  "b820b6ffca7a3cc5",
		"aim/ibmqx2/qaoa-4B/schedule-aware/512":  "74175dc6e953c85b",
		"sim/ibmqx2/qaoa-4B/idle-inversion/3000": "fe983c8f5c56acef",
		"aim/ibmqx2/qaoa-4B/idle-inversion/3000": "822ac0be71b6a40b",
		"sim/ibmqx2/qaoa-4B/idle-inversion/512":  "06aa44a545370bcb",
		"aim/ibmqx2/qaoa-4B/idle-inversion/512":  "1b1ce6595cfeac7b",
		"sim/ibmqx4/bv-4A/full-noise/3000":       "83c375a378ba7d35",
		"aim/ibmqx4/bv-4A/full-noise/3000":       "034f63e7eb3deb15",
		"sim/ibmqx4/bv-4A/full-noise/512":        "edb19049d8870499",
		"aim/ibmqx4/bv-4A/full-noise/512":        "d4df435241c82d81",
		"sim/ibmqx4/bv-4A/no-readout/3000":       "7a16a18f59ef5a59",
		"aim/ibmqx4/bv-4A/no-readout/3000":       "67a9e50060773675",
		"sim/ibmqx4/bv-4A/no-readout/512":        "3ae3eb948d61889b",
		"aim/ibmqx4/bv-4A/no-readout/512":        "721006179d037c05",
		"sim/ibmqx4/bv-4A/no-gate-noise/3000":    "54755c79474d9ad5",
		"aim/ibmqx4/bv-4A/no-gate-noise/3000":    "959e097a47a91e63",
		"sim/ibmqx4/bv-4A/no-gate-noise/512":     "0140e92504552766",
		"aim/ibmqx4/bv-4A/no-gate-noise/512":     "f12a6ed061f98e11",
		"sim/ibmqx4/bv-4A/no-decay/3000":         "2594dc1355b72aa1",
		"aim/ibmqx4/bv-4A/no-decay/3000":         "d6602bd3dfae23b5",
		"sim/ibmqx4/bv-4A/no-decay/512":          "41179310142810d5",
		"aim/ibmqx4/bv-4A/no-decay/512":          "73af8fd8a4b24674",
		"sim/ibmqx4/bv-4A/schedule-aware/3000":   "20e279d0aab653cb",
		"aim/ibmqx4/bv-4A/schedule-aware/3000":   "78451237f7b7b728",
		"sim/ibmqx4/bv-4A/schedule-aware/512":    "3fd841a0e743c9c2",
		"aim/ibmqx4/bv-4A/schedule-aware/512":    "52f4dafb75bb2d5a",
		"sim/ibmqx4/bv-4A/idle-inversion/3000":   "3803a83270180dd0",
		"aim/ibmqx4/bv-4A/idle-inversion/3000":   "6758f2495165fd8d",
		"sim/ibmqx4/bv-4A/idle-inversion/512":    "d753ab9da4482473",
		"aim/ibmqx4/bv-4A/idle-inversion/512":    "4be16fecf0df8831",
		"sim/ibmqx4/bv-4B/full-noise/3000":       "57fc84c79773dffa",
		"aim/ibmqx4/bv-4B/full-noise/3000":       "0a8a4f97881739d3",
		"sim/ibmqx4/bv-4B/full-noise/512":        "bd4de5c25e2bf89b",
		"aim/ibmqx4/bv-4B/full-noise/512":        "f15a2918c146f94b",
		"sim/ibmqx4/bv-4B/no-readout/3000":       "7649704c67999956",
		"aim/ibmqx4/bv-4B/no-readout/3000":       "4b5540a8379ecd80",
		"sim/ibmqx4/bv-4B/no-readout/512":        "48e7fcab41982e29",
		"aim/ibmqx4/bv-4B/no-readout/512":        "d18103a66d973ec7",
		"sim/ibmqx4/bv-4B/no-gate-noise/3000":    "752d609f1dac89c4",
		"aim/ibmqx4/bv-4B/no-gate-noise/3000":    "f22ec7000c167d27",
		"sim/ibmqx4/bv-4B/no-gate-noise/512":     "1d7d188968889549",
		"aim/ibmqx4/bv-4B/no-gate-noise/512":     "913f04eed826ca36",
		"sim/ibmqx4/bv-4B/no-decay/3000":         "52204331a0d3c29e",
		"aim/ibmqx4/bv-4B/no-decay/3000":         "60275f1974396413",
		"sim/ibmqx4/bv-4B/no-decay/512":          "aa361aee9cd3b934",
		"aim/ibmqx4/bv-4B/no-decay/512":          "492115dc3f3d94d2",
		"sim/ibmqx4/bv-4B/schedule-aware/3000":   "c673f5c352e6999a",
		"aim/ibmqx4/bv-4B/schedule-aware/3000":   "a726f259575a98cd",
		"sim/ibmqx4/bv-4B/schedule-aware/512":    "788172dfe2afa791",
		"aim/ibmqx4/bv-4B/schedule-aware/512":    "8222d867bfb899e7",
		"sim/ibmqx4/bv-4B/idle-inversion/3000":   "16709caa217fa11b",
		"aim/ibmqx4/bv-4B/idle-inversion/3000":   "32c7c1fd37d8b654",
		"sim/ibmqx4/bv-4B/idle-inversion/512":    "d63d73c1926ea22f",
		"aim/ibmqx4/bv-4B/idle-inversion/512":    "80a99c3aedb30a3f",
		"sim/ibmqx4/qaoa-4A/full-noise/3000":     "f6070504e3d34a6e",
		"aim/ibmqx4/qaoa-4A/full-noise/3000":     "ed6983a9ca6cc181",
		"sim/ibmqx4/qaoa-4A/full-noise/512":      "5cae8a57be99d295",
		"aim/ibmqx4/qaoa-4A/full-noise/512":      "3bc92287f833d7b6",
		"sim/ibmqx4/qaoa-4A/no-readout/3000":     "e3cea1a1dffae889",
		"aim/ibmqx4/qaoa-4A/no-readout/3000":     "68d472326eab384c",
		"sim/ibmqx4/qaoa-4A/no-readout/512":      "895fea68cfd5ed13",
		"aim/ibmqx4/qaoa-4A/no-readout/512":      "0b4a325f70513d77",
		"sim/ibmqx4/qaoa-4A/no-gate-noise/3000":  "986c0d1f2bb748f7",
		"aim/ibmqx4/qaoa-4A/no-gate-noise/3000":  "220acefc686e12a0",
		"sim/ibmqx4/qaoa-4A/no-gate-noise/512":   "55579e46c3e191fb",
		"aim/ibmqx4/qaoa-4A/no-gate-noise/512":   "9b45bda1af093703",
		"sim/ibmqx4/qaoa-4A/no-decay/3000":       "b26a988f5ccacc94",
		"aim/ibmqx4/qaoa-4A/no-decay/3000":       "99ace3648362332a",
		"sim/ibmqx4/qaoa-4A/no-decay/512":        "bb9aff3312fb59c1",
		"aim/ibmqx4/qaoa-4A/no-decay/512":        "46769529d50628d3",
		"sim/ibmqx4/qaoa-4A/schedule-aware/3000": "de6961eb03f6a54c",
		"aim/ibmqx4/qaoa-4A/schedule-aware/3000": "126f94b732c72396",
		"sim/ibmqx4/qaoa-4A/schedule-aware/512":  "ebc5c0efd369b3d3",
		"aim/ibmqx4/qaoa-4A/schedule-aware/512":  "fd434dd39f9f99eb",
		"sim/ibmqx4/qaoa-4A/idle-inversion/3000": "ef6048cfe6670222",
		"aim/ibmqx4/qaoa-4A/idle-inversion/3000": "ad88b90650d746b1",
		"sim/ibmqx4/qaoa-4A/idle-inversion/512":  "f04bb85afdf23812",
		"aim/ibmqx4/qaoa-4A/idle-inversion/512":  "344a892b2e71ee47",
		"sim/ibmqx4/qaoa-4B/full-noise/3000":     "50328c229c6d7693",
		"aim/ibmqx4/qaoa-4B/full-noise/3000":     "20dee51fb90c6cf9",
		"sim/ibmqx4/qaoa-4B/full-noise/512":      "023d8cf7af406662",
		"aim/ibmqx4/qaoa-4B/full-noise/512":      "5da9081b5247a230",
		"sim/ibmqx4/qaoa-4B/no-readout/3000":     "63b1e10cc76a3d92",
		"aim/ibmqx4/qaoa-4B/no-readout/3000":     "b72ea372a1f59ffc",
		"sim/ibmqx4/qaoa-4B/no-readout/512":      "fb5bf87161c13024",
		"aim/ibmqx4/qaoa-4B/no-readout/512":      "0c9a46364e260c13",
		"sim/ibmqx4/qaoa-4B/no-gate-noise/3000":  "221dd0aa8f7c4fb3",
		"aim/ibmqx4/qaoa-4B/no-gate-noise/3000":  "7469a6d9831dd3c2",
		"sim/ibmqx4/qaoa-4B/no-gate-noise/512":   "a358242b13b40756",
		"aim/ibmqx4/qaoa-4B/no-gate-noise/512":   "99cccfae99a7b4ad",
		"sim/ibmqx4/qaoa-4B/no-decay/3000":       "cf95121df94236da",
		"aim/ibmqx4/qaoa-4B/no-decay/3000":       "ba5efb6126d77cdc",
		"sim/ibmqx4/qaoa-4B/no-decay/512":        "33a10a7a844f8cec",
		"aim/ibmqx4/qaoa-4B/no-decay/512":        "8c166cc4493b98d3",
		"sim/ibmqx4/qaoa-4B/schedule-aware/3000": "94e87e5a6a504aa0",
		"aim/ibmqx4/qaoa-4B/schedule-aware/3000": "a14221c3101593ee",
		"sim/ibmqx4/qaoa-4B/schedule-aware/512":  "21adb5f3f90f958d",
		"aim/ibmqx4/qaoa-4B/schedule-aware/512":  "d5b7a54ae1366e1a",
		"sim/ibmqx4/qaoa-4B/idle-inversion/3000": "91d6947f06bf82bc",
		"aim/ibmqx4/qaoa-4B/idle-inversion/3000": "8967399e8bbc1411",
		"sim/ibmqx4/qaoa-4B/idle-inversion/512":  "e5c3c6ee4fd3e2c5",
		"aim/ibmqx4/qaoa-4B/idle-inversion/512":  "2a446f9641442db9",
	}
	ablations := []struct {
		name string
		opt  backend.Options
	}{
		{"full-noise", backend.Options{}},
		{"no-readout", backend.Options{NoReadoutError: true}},
		{"no-gate-noise", backend.Options{NoGateNoise: true}},
		{"no-decay", backend.Options{NoDecay: true}},
		{"schedule-aware", backend.Options{ScheduleAwareDecay: true}},
		{"idle-inversion", backend.Options{ScheduleAwareDecay: true, IdleInversion: true}},
	}
	for _, dev := range []*device.Device{device.IBMQX2(), device.IBMQX4()} {
		for _, name := range []string{"bv-4A", "bv-4B", "qaoa-4A", "qaoa-4B"} {
			bench, err := experiments.BenchmarkByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, ab := range ablations {
				for _, shots := range []int{3000, 512} {
					for _, workers := range []int{1, 4} {
						m := core.NewMachine(dev)
						m.Opt = ab.opt
						m.Workers = workers
						job, err := core.NewJob(bench.Circuit, m)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("%s/%s/%s/%d", dev.Name, name, ab.name, shots)
						sim, err := core.SIM4Context(context.Background(), job, shots, 2019)
						if err != nil {
							t.Fatal(err)
						}
						if got := policyDigest(sim.Merged); got != want["sim/"+label] {
							t.Errorf("sim/%s/w%d: merged digest %s, pinned %s", label, workers, got, want["sim/"+label])
						}
						aim, err := core.AIMContext(context.Background(), job, readoutRBMS(t, job), core.AIMConfig{}, shots, 2019)
						if err != nil {
							t.Fatal(err)
						}
						if got := policyDigest(aim.Merged); got != want["aim/"+label] {
							t.Errorf("aim/%s/w%d: merged digest %s, pinned %s", label, workers, got, want["aim/"+label])
						}
					}
				}
			}
		}
	}
}
