package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/client"
	"biasmit/internal/persist"
)

// daemon is one biasmitd process a scenario owns: spawned against a log
// file (stdout+stderr), addressed through the ephemeral port parsed back
// out of that log.
type daemon struct {
	cmd     *exec.Cmd
	logPath string
	cl      *client.Client
}

// startDaemon boots bin with -addr 127.0.0.1:0 plus args and waits for
// its "listening on" line.
func startDaemon(ctx context.Context, bin, logPath string, args ...string) (*daemon, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout = f
	cmd.Stderr = f
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	f.Close() // the child holds its own descriptor now

	addr, err := awaitListening(ctx, logPath)
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, err
	}
	return &daemon{cmd: cmd, logPath: logPath, cl: client.New(addr)}, nil
}

// startScratchDaemon boots the one daemon a single-boot scenario owns,
// logging to <dir>/<scenario>.log; dir is scratch space.
func startScratchDaemon(ctx context.Context, scenario, bin, dir string, args ...string) (*daemon, error) {
	if bin == "" || dir == "" {
		return nil, fmt.Errorf("the %s scenario needs -daemon and -data-dir (scratch space)", scenario)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return startDaemon(ctx, bin, filepath.Join(dir, scenario+".log"), args...)
}

// awaitListening polls the daemon's structured log for the listen
// address — the "listening" line's addr field.
func awaitListening(ctx context.Context, logPath string) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	const marker = `"msg":"listening","addr":"`
	for {
		data, _ := os.ReadFile(logPath)
		if i := strings.Index(string(data), marker); i >= 0 {
			rest := string(data)[i+len(marker):]
			if j := strings.IndexByte(rest, '"'); j >= 0 {
				return rest[:j], nil
			}
		}
		select {
		case <-ctx.Done():
			return "", fmt.Errorf("daemon never reported an address; log:\n%s", data)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// kill is the crash under test: SIGKILL, no drain, no final compaction.
func (d *daemon) kill() {
	if d.cmd.Process != nil {
		_ = d.cmd.Process.Kill()
	}
	_ = d.cmd.Wait()
}

// stopGracefully sends SIGTERM and requires a clean drain.
func (d *daemon) stopGracefully() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signaling daemon: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon exit after SIGTERM: %w", err)
		}
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		return fmt.Errorf("daemon did not exit within 30s of SIGTERM")
	}
	data, _ := os.ReadFile(d.logPath)
	if !strings.Contains(string(data), "drained cleanly") {
		return fmt.Errorf("daemon exited without draining cleanly; log:\n%s", data)
	}
	return nil
}

// canonicalMitigate strips the fields that legitimately differ between
// runs (elapsed time, profile age) and returns the deterministic rest as
// JSON for byte comparison across the restart.
func canonicalMitigate(out *api.MitigateResponse) (string, error) {
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
	return string(raw), err
}

// recoverScenario is the crash-recovery gauntlet of the CI persistence
// job. It owns the daemon lifecycle end to end:
//
//  1. boot biasmitd with -data-dir, learn two profiles explicitly, and
//     record a canonical AIM run against one of them;
//  2. SIGKILL the daemon while a third characterization (an ESCT over
//     all 14 melbourne qubits) is in flight, then append a torn
//     half-frame to the WAL the way a crash mid-append would;
//  3. restart from the same -data-dir and require: health ok, both
//     committed profiles warm with their original learned_at, the torn
//     tail reported dropped, zero re-characterizations, and the AIM run
//     (require_cached_profile) byte-identical to the pre-crash record;
//  4. SIGTERM and require a clean drain.
func recoverScenario(ctx context.Context, bin, dataDir string) error {
	if bin == "" || dataDir == "" {
		return fmt.Errorf("the recover scenario needs -daemon and -data-dir")
	}
	args := []string{
		"-data-dir", dataDir,
		"-profile-shots", "256",
		"-workers", "2",
		// Keep compaction out of the way: this round-trip must recover
		// from the WAL alone.
		"-snapshot-interval", "1h",
	}

	d1, err := startDaemon(ctx, bin, filepath.Join(dataDir, "boot1.log"), args...)
	if err != nil {
		return err
	}
	defer d1.kill() // idempotent; the scenario kills it on purpose below

	// Learn two profiles. The response only returns once the journal
	// entry is fsynced, so both are committed the moment these calls
	// succeed. The 5-qubit brute profile is exactly the key a bv-4A AIM
	// run resolves to.
	qx4, err := d1.cl.Characterize(ctx, &api.CharacterizeRequest{Machine: "ibmqx4", Method: "brute", Qubits: 5})
	if err != nil {
		return fmt.Errorf("characterize ibmqx4: %w", err)
	}
	qx2, err := d1.cl.Characterize(ctx, &api.CharacterizeRequest{Machine: "ibmqx2", Method: "brute", Qubits: 2})
	if err != nil {
		return fmt.Errorf("characterize ibmqx2: %w", err)
	}

	aim := &api.MitigateRequest{
		Machine: "ibmqx4", Policy: "aim", Benchmark: "bv-4A",
		Shots: 600, Seed: 3, RequireCachedProfile: true,
	}
	before, err := d1.cl.Mitigate(ctx, aim)
	if err != nil {
		return fmt.Errorf("pre-crash aim run: %w", err)
	}
	if before.Profile == nil || !before.Profile.Cached {
		return fmt.Errorf("pre-crash aim run should hit the just-learned profile, got %+v", before.Profile)
	}
	wantCanon, err := canonicalMitigate(before)
	if err != nil {
		return err
	}

	// Fire a 14-qubit characterization and kill the daemon as soon as
	// /metrics shows it in flight, so the crash lands mid-work, not at a
	// quiet point. It is an ESCT over all 14 qubits, one run the backend
	// cannot compact (tens of milliseconds on 2 vCPUs); AWCT's 4-qubit
	// windows finish in a few milliseconds each. Whether or not it
	// commits before the SIGKILL, the two profiles above are already
	// durable.
	go func() {
		_, _ = d1.cl.Characterize(ctx, &api.CharacterizeRequest{Machine: "ibmq-melbourne", Method: "esct", Qubits: 14})
	}()
	inFlight := `biasmitd_in_flight_requests{route="/v1/characterize"}`
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if v, err := cacheMetric(ctx, d1, inFlight); err == nil && v > 0 {
			break
		}
	}
	d1.kill()

	// Torn write: a frame header claiming 64 payload bytes followed by
	// only 5 of them, exactly what a crash mid-append leaves behind.
	torn := persist.AppendWALRecord(nil, make([]byte, 64))[:13]
	wal, err := os.OpenFile(filepath.Join(dataDir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening WAL to tear its tail: %w", err)
	}
	if _, err := wal.Write(torn); err != nil {
		wal.Close()
		return fmt.Errorf("appending torn frame: %w", err)
	}
	if err := wal.Close(); err != nil {
		return err
	}

	d2, err := startDaemon(ctx, bin, filepath.Join(dataDir, "boot2.log"), args...)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer d2.kill()

	h, err := d2.cl.Healthz(ctx)
	if err != nil {
		return fmt.Errorf("healthz after restart: %w", err)
	}
	if h.Status != "ok" {
		return fmt.Errorf("healthz status %q after restart, want ok", h.Status)
	}

	// Both committed profiles are warm with their original provenance.
	profs, err := d2.cl.Profiles(ctx)
	if err != nil {
		return fmt.Errorf("profiles after restart: %w", err)
	}
	for _, want := range []*api.CharacterizeResponse{qx4, qx2} {
		found := false
		for _, p := range profs.Profiles {
			if p.Machine == want.Profile.Machine && p.Width == want.Profile.Width && p.Method == want.Profile.Method {
				if !p.LearnedAt.Equal(want.Profile.LearnedAt) {
					return fmt.Errorf("recovered %s/%dq/%s learned_at %v, want the original %v",
						p.Machine, p.Width, p.Method, p.LearnedAt, want.Profile.LearnedAt)
				}
				found = true
			}
		}
		if !found {
			return fmt.Errorf("profile %s/%dq/%s not recovered; have %+v",
				want.Profile.Machine, want.Profile.Width, want.Profile.Method, profs.Profiles)
		}
	}

	// require_cached_profile makes re-characterization an error rather
	// than a fallback — "warm" is asserted, not hoped for — and the
	// mitigation output must be byte-identical to the pre-crash run.
	after, err := d2.cl.Mitigate(ctx, aim)
	if err != nil {
		return fmt.Errorf("post-restart aim run: %w", err)
	}
	if after.Profile == nil || !after.Profile.Cached {
		return fmt.Errorf("post-restart aim run should hit the recovered profile, got %+v", after.Profile)
	}
	if !after.Profile.LearnedAt.Equal(before.Profile.LearnedAt) {
		return fmt.Errorf("recovered aim profile learned_at %v, want the original %v",
			after.Profile.LearnedAt, before.Profile.LearnedAt)
	}
	gotCanon, err := canonicalMitigate(after)
	if err != nil {
		return err
	}
	if gotCanon != wantCanon {
		return fmt.Errorf("mitigation output changed across restart:\npre:  %s\npost: %s", wantCanon, gotCanon)
	}

	if err := expectMetrics(ctx, d2.cl,
		"biasmitd_persistence_enabled 1",
		"biasmitd_recovery_wal_tail_truncated 1",
		"biasmitd_profile_characterizations_total 0",
	); err != nil {
		return err
	}

	return d2.stopGracefully()
}
