package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"biasmit/internal/api"
	"biasmit/internal/profilestore"
)

// durableServer spins up the API journaling to dir.
func durableServer(t *testing.T, dir string) (*Server, *httptest.Server, *profilestore.DiskLog) {
	t.Helper()
	dlog, err := profilestore.OpenDiskLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Workers:      2,
		MaxJobs:      2,
		ProfileShots: 64,
		MaxShots:     1 << 16,
		Persist:      dlog,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, dlog
}

// canonicalAIM strips the fields that legitimately differ between runs
// (elapsed time, profile age) and returns the deterministic rest as
// JSON for byte comparison.
func canonicalAIM(t *testing.T, out *api.MitigateResponse) string {
	t.Helper()
	canon := struct {
		Machine    string
		Benchmark  string
		Shots      int
		Seed       int64
		Layout     []int
		Swaps      int
		Outcomes   []api.OutcomeCount
		Distinct   int
		Metrics    *api.PolicyMetrics
		Strongest  string
		Candidates []api.AIMCandidate
	}{
		out.Machine, out.Benchmark, out.Shots, out.Seed, out.Layout, out.Swaps,
		out.Outcomes, out.DistinctOutcomes, out.Metrics, out.Strongest, out.Candidates,
	}
	raw, err := json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestWarmRestartServesIdenticalMitigation is the server-level crash
// recovery contract: a profile learned before an unclean shutdown (no
// Close, no compaction — WAL only) is served warm by the next process,
// with zero re-characterization and byte-identical AIM output.
func TestWarmRestartServesIdenticalMitigation(t *testing.T) {
	dir := t.TempDir()
	req := api.MitigateRequest{Machine: "ibmqx4", Policy: "aim", Benchmark: "bv-4A", Shots: 600, Seed: 3}

	_, ts1, _ := durableServer(t, dir)
	var before api.MitigateResponse
	_, data := postJSON(t, ts1.URL+"/v1/mitigate", req)
	if err := json.Unmarshal(data, &before); err != nil {
		t.Fatalf("pre-crash AIM run: %v\n%s", err, data)
	}
	if before.Profile == nil || before.Profile.Cached {
		t.Fatalf("pre-crash run should characterize fresh: %s", data)
	}
	// Unclean death: the DiskLog is abandoned mid-life. Every committed
	// WAL record is already fsynced, so nothing more is owed to disk.

	s2, ts2, _ := durableServer(t, dir)
	if st := s2.Store().StatsSnapshot(); st.Entries != 1 {
		t.Fatalf("restarted store has %d entries, want 1 recovered", st.Entries)
	}

	// require_cached_profile makes re-characterization an error rather
	// than a fallback — "warm" is asserted, not hoped for.
	warmReq := req
	warmReq.RequireCachedProfile = true
	var after api.MitigateResponse
	_, data = postJSON(t, ts2.URL+"/v1/mitigate", warmReq)
	if err := json.Unmarshal(data, &after); err != nil {
		t.Fatalf("post-restart AIM run: %v\n%s", err, data)
	}
	if after.Profile == nil || !after.Profile.Cached {
		t.Fatalf("post-restart run should hit the recovered profile: %s", data)
	}
	if !after.Profile.LearnedAt.Equal(before.Profile.LearnedAt) {
		t.Fatalf("recovered profile learned_at %v, want the original %v",
			after.Profile.LearnedAt, before.Profile.LearnedAt)
	}
	if got, want := canonicalAIM(t, &after), canonicalAIM(t, &before); got != want {
		t.Fatalf("mitigation output changed across restart:\npre:  %s\npost: %s", want, got)
	}
	if st := s2.Store().StatsSnapshot(); st.Characterizations != 0 {
		t.Fatalf("restarted server re-characterized %d times, want 0", st.Characterizations)
	}

	// The recovery gauges tell the same story on /metrics.
	_, metricsBody := getBody(t, ts2.URL+"/metrics")
	for _, want := range []string{
		"biasmitd_persistence_enabled 1",
		"biasmitd_profiles_restored 1",
		"biasmitd_profile_characterizations_total 0",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metricsBody)
		}
	}
}

// TestMemoryOnlyServerReportsPersistenceDisabled pins the metrics
// contract for the default (no -data-dir) configuration.
func TestMemoryOnlyServerReportsPersistenceDisabled(t *testing.T) {
	_, ts := testServer(t)
	_, metricsBody := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metricsBody), "biasmitd_persistence_enabled 0") {
		t.Fatalf("metrics missing persistence_enabled 0:\n%s", metricsBody)
	}
}
