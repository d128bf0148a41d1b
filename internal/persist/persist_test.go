package persist

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/core"
	"biasmit/internal/device"
)

func TestRBMSRoundTrip(t *testing.T) {
	strength := make([]float64, 32)
	for i := range strength {
		strength[i] = 1 / float64(i+1)
	}
	orig, err := core.NewRBMS(5, strength)
	if err != nil {
		t.Fatal(err)
	}
	rec := ProfileRecord{Machine: "ibmqx4", Layout: []int{0, 1, 2, 3, 4}, Method: "brute", Width: orig.Width, Strength: orig.Strength}
	var buf bytes.Buffer
	if err := SaveProfile(&buf, rec); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Machine != rec.Machine || got.Method != rec.Method {
		t.Errorf("record = %+v", got)
	}
	loaded, err := got.RBMS()
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Width != 5 {
		t.Fatalf("width = %d", loaded.Width)
	}
	for i := range strength {
		if loaded.Strength[i] != strength[i] {
			t.Fatalf("strength[%d] mismatch", i)
		}
	}
	if loaded.StrongestState() != orig.StrongestState() {
		t.Error("strongest state changed")
	}
}

func TestLoadedRBMSDrivesAIM(t *testing.T) {
	// End-to-end: profile, save, load, run AIM with the loaded profile.
	dev := device.IBMQX4()
	m := core.NewMachine(dev)
	m.Opt = backend.Options{NoGateNoise: true, NoDecay: true}
	prof := &core.Profiler{Machine: m, Layout: []int{0, 1, 2, 3, 4}}
	rbms, err := prof.BruteForceContext(context.Background(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveProfile(&buf, ProfileRecord{Machine: dev.Name, Method: "brute", Width: rbms.Width, Strength: rbms.Strength}); err != nil {
		t.Fatal(err)
	}
	rec, err := LoadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := rec.RBMS()
	if err != nil {
		t.Fatal(err)
	}
	prep := circuit.New(5, "prep").PrepareBasis(bitstring.MustParse("11011"))
	job, err := core.NewJobWithLayout(prep, m, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AIMContext(context.Background(), job, loaded, core.AIMConfig{}, 4000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged.Total() != 4000 {
		t.Errorf("budget = %d", res.Merged.Total())
	}
}

func TestKindMismatchRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, ProfileSnapshot{LastSeq: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfile(&buf); err == nil {
		t.Error("snapshot file loaded as RBMS")
	}
	buf.Reset()
	if err := SaveProfile(&buf, ProfileRecord{Width: 1, Strength: []float64{1, 0.5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(&buf); err == nil {
		t.Error("RBMS file loaded as snapshot")
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveProfile(&buf, ProfileRecord{Width: 1, Strength: []float64{1, 0.5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfile(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	future := strings.Replace(buf.String(), `"version": 1`, `"version": 99`, 1)
	if _, err := LoadProfile(strings.NewReader(future)); err == nil {
		t.Error("future version accepted")
	}
}

func TestGarbageRejected(t *testing.T) {
	if _, err := LoadSnapshot(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadProfile(strings.NewReader(`{"kind":"biasmit/rbms","version":1,"payload":{"width":3,"strength":[1]}}`)); err == nil {
		t.Error("inconsistent RBMS accepted")
	}
}
