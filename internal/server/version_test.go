package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"biasmit/internal/api"
)

// TestEveryResponseCarriesAPIVersion sweeps the JSON routes — success
// and error paths alike — and asserts each body carries the protocol
// version stamp. This is the wire contract the typed client checks
// before interpreting fields.
func TestEveryResponseCarriesAPIVersion(t *testing.T) {
	_, ts := testServer(t)

	assertVersion := func(label string, data []byte) {
		t.Helper()
		var probe struct {
			APIVersion string `json:"api_version"`
		}
		if err := json.Unmarshal(data, &probe); err != nil {
			t.Fatalf("%s: body is not JSON: %v\n%s", label, err, data)
		}
		if probe.APIVersion != api.Version {
			t.Fatalf("%s: api_version %q, want %q in %s", label, probe.APIVersion, api.Version, data)
		}
	}

	// Success paths.
	_, data := getBody(t, ts.URL+"/healthz")
	assertVersion("healthz", data)
	_, data = getBody(t, ts.URL+"/v1/profiles")
	assertVersion("profiles", data)
	resp, data := postJSON(t, ts.URL+"/v1/mitigate", api.MitigateRequest{
		Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 128, Seed: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mitigate status %d: %s", resp.StatusCode, data)
	}
	assertVersion("mitigate", data)
	resp, data = postJSON(t, ts.URL+"/v1/characterize", api.CharacterizeRequest{Machine: "ibmqx4"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("characterize status %d: %s", resp.StatusCode, data)
	}
	assertVersion("characterize", data)

	// Error paths: unknown machine, bad method, unknown route.
	_, data = postJSON(t, ts.URL+"/v1/mitigate", api.MitigateRequest{
		Machine: "no-such-machine", Policy: "baseline", Benchmark: "bv-4A", Shots: 128,
	})
	assertVersion("mitigate-error", data)
	_, data = getBody(t, ts.URL+"/v1/mitigate")
	assertVersion("method-error", data)
	_, data = getBody(t, ts.URL+"/v1/no-such-route")
	assertVersion("route-error", data)
}
