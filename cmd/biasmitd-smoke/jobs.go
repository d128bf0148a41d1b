package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/client"
)

// awaitJobResult waits a job out and decodes its mitigation result.
func awaitJobResult(ctx context.Context, cl *client.Client, id string) (*api.JobResponse, *api.MitigateResponse, error) {
	final, err := cl.WaitJob(ctx, id)
	if err != nil {
		return nil, nil, fmt.Errorf("waiting for job %s: %w", id, err)
	}
	if final.Job.State != api.JobStateDone {
		return nil, nil, fmt.Errorf("job %s ended %s (error %+v)", id, final.Job.State, final.Job.Error)
	}
	out := new(api.MitigateResponse)
	if err := json.Unmarshal(final.Result, out); err != nil {
		return nil, nil, fmt.Errorf("decoding job %s result: %w", id, err)
	}
	return final, out, nil
}

// submitBaseline enqueues one baseline mitigation job.
func submitBaseline(ctx context.Context, cl *client.Client, req *api.MitigateRequest) (string, error) {
	resp, err := cl.SubmitJob(ctx, &api.JobSubmitRequest{Type: api.JobTypeMitigate, Mitigate: req})
	if err != nil {
		return "", fmt.Errorf("submitting job: %w", err)
	}
	if resp.Job.State != api.JobStateQueued {
		return "", fmt.Errorf("submitted job %s born %q, want queued", resp.Job.ID, resp.Job.State)
	}
	return resp.Job.ID, nil
}

// jobsScenario is the async-queue crash round-trip of the CI serve job.
// It owns the daemon lifecycle:
//
//  1. boot biasmitd with -jobs-dir and one job worker, run a synchronous
//     mitigation as the reference, then run the same request through the
//     queue and require the job's result byte-identical to it;
//  2. park a slow job on the worker, queue two more behind it, cancel
//     one while it is still queued, and SIGKILL the daemon while the
//     slow job is mid-run;
//  3. restart from the same -jobs-dir and require: every job recovered
//     (the done one with its result bytes intact, the cancelled one
//     still cancelled), the mid-run job re-queued and re-executed to
//     the exact bytes a synchronous run produces, and the recovery
//     metrics telling that story;
//  4. SIGTERM and require a clean drain.
func jobsScenario(ctx context.Context, bin, jobsDir string) error {
	if bin == "" || jobsDir == "" {
		return fmt.Errorf("the jobs scenario needs -daemon and -jobs-dir")
	}
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		return err
	}
	args := []string{
		"-jobs-dir", jobsDir,
		"-job-workers", "1",
		"-workers", "2",
		"-profile-shots", "256",
		// This scenario proves the queue re-executes work to the exact
		// bytes the synchronous path computes; a result-cache hit would
		// hand both paths the same stored bytes and prove nothing.
		"-result-cache=false",
	}

	d1, err := startDaemon(ctx, bin, filepath.Join(jobsDir, "boot1.log"), args...)
	if err != nil {
		return err
	}
	defer d1.kill() // idempotent; the scenario kills it on purpose below

	// The synchronous path is the reference the queue must reproduce.
	fastReq := &api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 2048, Seed: 11}
	syncOut, err := d1.cl.Mitigate(ctx, fastReq)
	if err != nil {
		return fmt.Errorf("sync reference run: %w", err)
	}
	wantCanon, err := canonicalMitigate(syncOut)
	if err != nil {
		return err
	}

	doneID, err := submitBaseline(ctx, d1.cl, fastReq)
	if err != nil {
		return err
	}
	_, asyncOut, err := awaitJobResult(ctx, d1.cl, doneID)
	if err != nil {
		return err
	}
	gotCanon, err := canonicalMitigate(asyncOut)
	if err != nil {
		return err
	}
	if gotCanon != wantCanon {
		return fmt.Errorf("async result diverged from the synchronous path:\nsync:  %s\nasync: %s", wantCanon, gotCanon)
	}

	// Park a slow job on the single worker, then stack two behind it.
	// The slow job is submitted under a client-minted trace ID: the crash
	// below must not orphan it — the recovered job carries the same ID.
	// Trajectories on all 14 qubits of the machine keep it running for
	// about 1.4s on 2 vCPUs: ghz-14 touches every qubit, so the backend
	// cannot compact its register. A circuit touching fewer qubits, or a
	// run the exact engine takes, finishes in milliseconds.
	slowReq := &api.MitigateRequest{Machine: "ibmq-melbourne", Policy: "baseline", Benchmark: "ghz-14", Shots: 8192, Seed: 21}
	traceCtx, slowTrace := client.WithTraceID(ctx, "")
	slowID, err := submitBaseline(traceCtx, d1.cl, slowReq)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		j, err := d1.cl.Job(ctx, slowID, 0)
		if err != nil {
			return fmt.Errorf("polling slow job: %w", err)
		}
		if j.Job.State == api.JobStateRunning {
			break
		}
		if j.Job.State != api.JobStateQueued {
			return fmt.Errorf("slow job reached %s before the crash; raise its shots", j.Job.State)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("slow job never started")
		}
		time.Sleep(20 * time.Millisecond)
	}
	queuedReq := &api.MitigateRequest{Machine: "ibmqx4", Policy: "baseline", Benchmark: "bv-4A", Shots: 2048, Seed: 31}
	queuedID, err := submitBaseline(ctx, d1.cl, queuedReq)
	if err != nil {
		return err
	}
	victimID, err := submitBaseline(ctx, d1.cl, fastReq)
	if err != nil {
		return err
	}
	cancelled, err := d1.cl.CancelJob(ctx, victimID)
	if err != nil {
		return fmt.Errorf("cancelling queued job: %w", err)
	}
	if cancelled.Job.State != api.JobStateCancelled {
		return fmt.Errorf("queued job %s is %s after cancel, want cancelled", victimID, cancelled.Job.State)
	}

	// The crash under test: SIGKILL with one job mid-run and one queued.
	d1.kill()

	d2, err := startDaemon(ctx, bin, filepath.Join(jobsDir, "boot2.log"), args...)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer d2.kill()

	// The interrupted job was re-queued and re-executes to the same
	// bytes the synchronous path produces — the seeds are in the
	// payload, so the re-run is deterministic.
	slowFinal, slowOut, err := awaitJobResult(ctx, d2.cl, slowID)
	if err != nil {
		return fmt.Errorf("re-executed job: %w", err)
	}
	if slowFinal.Job.Requeues != 1 {
		return fmt.Errorf("re-executed job requeues %d, want 1", slowFinal.Job.Requeues)
	}
	// The trace ID minted before the crash survived the journal
	// round-trip: it is on the recovered job and in its result envelope.
	if slowFinal.Job.TraceID != slowTrace {
		return fmt.Errorf("re-executed job trace_id %q, want the pre-crash %q", slowFinal.Job.TraceID, slowTrace)
	}
	if slowOut.TraceID != slowTrace {
		return fmt.Errorf("re-executed job result trace_id %q, want the pre-crash %q", slowOut.TraceID, slowTrace)
	}
	slowSync, err := d2.cl.Mitigate(ctx, slowReq)
	if err != nil {
		return fmt.Errorf("sync reference for the re-executed job: %w", err)
	}
	slowWant, err := canonicalMitigate(slowSync)
	if err != nil {
		return err
	}
	slowGot, err := canonicalMitigate(slowOut)
	if err != nil {
		return err
	}
	if slowGot != slowWant {
		return fmt.Errorf("re-executed job diverged from the synchronous path:\nsync:  %s\nasync: %s", slowWant, slowGot)
	}

	// The queued job survived the crash and ran exactly once.
	queuedFinal, _, err := awaitJobResult(ctx, d2.cl, queuedID)
	if err != nil {
		return fmt.Errorf("recovered queued job: %w", err)
	}
	if queuedFinal.Job.Requeues != 0 || queuedFinal.Job.Attempts != 1 {
		return fmt.Errorf("recovered queued job ran %d times with %d requeues, want exactly once",
			queuedFinal.Job.Attempts, queuedFinal.Job.Requeues)
	}

	// Terminal jobs recovered as-is: the done job's result bytes
	// survived the journal round-trip, the cancelled one stayed dead.
	doneAfter, err := d2.cl.Job(ctx, doneID, 0)
	if err != nil {
		return fmt.Errorf("recovered done job: %w", err)
	}
	if doneAfter.Job.State != api.JobStateDone {
		return fmt.Errorf("done job recovered as %s", doneAfter.Job.State)
	}
	recovered := new(api.MitigateResponse)
	if err := json.Unmarshal(doneAfter.Result, recovered); err != nil {
		return fmt.Errorf("decoding recovered result: %w", err)
	}
	recoveredCanon, err := canonicalMitigate(recovered)
	if err != nil {
		return err
	}
	if recoveredCanon != wantCanon {
		return fmt.Errorf("done job's result changed across restart:\npre:  %s\npost: %s", wantCanon, recoveredCanon)
	}
	victimAfter, err := d2.cl.Job(ctx, victimID, 0)
	if err != nil {
		return fmt.Errorf("recovered cancelled job: %w", err)
	}
	if victimAfter.Job.State != api.JobStateCancelled {
		return fmt.Errorf("cancelled job recovered as %s", victimAfter.Job.State)
	}

	if err := expectMetrics(ctx, d2.cl,
		"biasmitd_jobs_persistence_enabled 1",
		// Two live jobs survived the crash (the terminal ones are
		// reconstructed too, but only live ones count here), one of them
		// re-queued from mid-run.
		"biasmitd_jobs_recovered 2",
		"biasmitd_jobs_recovered_requeued 1",
		`biasmitd_jobs_depth{state="queued"} 0`,
		`biasmitd_jobs_depth{state="running"} 0`,
	); err != nil {
		return err
	}

	return d2.stopGracefully()
}
