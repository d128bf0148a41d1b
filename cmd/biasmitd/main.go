// Command biasmitd serves readout-error mitigation as a long-lived
// daemon: characterize a machine's RBMS once, cache the profile, and
// serve baseline/SIM/AIM runs against it over an HTTP/JSON API (see
// internal/server for the surface). A cached profile is learned again
// only when a characterize request forces it.
//
// Usage:
//
//	biasmitd -addr 127.0.0.1:8642
//	biasmitd -addr :0 -workers 4 -profile-shots 2048
//	biasmitd -data-dir /var/lib/biasmitd -snapshot-interval 5m
//
//	curl -s localhost:8642/healthz
//	curl -s -X POST localhost:8642/v1/mitigate \
//	  -d '{"machine":"ibmqx4","policy":"aim","benchmark":"bv-4A","shots":8192}'
//
// With -data-dir the profile store is durable: every learned profile is
// journaled to a checksummed WAL (fsync-on-commit), and a restarted
// daemon — even after kill -9 — warm-loads every committed profile
// instead of cold-starting into a characterization storm. -preload
// imports profile files written by `characterize -out` (same
// serialization) into the store at boot.
//
// With -jobs-dir the async job queue (POST /v1/jobs) is durable too:
// every job state transition is journaled the same way, and a restarted
// daemon re-queues jobs that were caught mid-run — same seed, same
// bytes, exactly one terminal state per job.
//
// Both journals are compacted into a snapshot every -snapshot-interval
// while the daemon runs, and once more at shutdown.
//
// Mitigation is a deterministic function of (machine, circuit, policy,
// shots, seed, profile), so by default repeated identical requests are
// served from a content-addressed result cache and concurrent
// duplicates coalesce onto a single execution (-result-cache=false
// disables this). Re-characterizing a machine invalidates every cached
// result that depended on its profile.
//
// The daemon drains gracefully on SIGINT/SIGTERM: the listener closes,
// in-flight requests get -drain-timeout to finish, then the process
// exits (a second signal aborts immediately).
package main

import (
	"context"
	"errors"
	"flag"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only via -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"biasmit/internal/chaos"
	"biasmit/internal/jobs"
	"biasmit/internal/obs"
	"biasmit/internal/persist"
	"biasmit/internal/profilestore"
	"biasmit/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8642", "listen address (use :0 for an ephemeral port)")
	workers := flag.Int("workers", 0, "parallel workers per job (0 = all CPUs)")
	maxJobs := flag.Int("max-jobs", 2, "concurrent mitigation/characterization jobs; further requests queue")
	defaultTimeout := flag.Duration("default-timeout", 60*time.Second, "per-request deadline when the request sets none")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "upper bound on per-request deadlines")
	maxShots := flag.Int("max-shots", 1<<20, "per-request shot-budget cap")
	profileShots := flag.Int("profile-shots", 2048, "characterization trials per basis state (brute) / window (awct) / total (esct)")
	dataDir := flag.String("data-dir", "", "durable profile store directory (WAL + snapshots; empty = memory-only)")
	snapshotInterval := flag.Duration("snapshot-interval", 5*time.Minute, "how often the -data-dir and -jobs-dir WALs are compacted into snapshots")
	preload := flag.String("preload", "", "comma-separated profile files (characterize -out format) imported at boot")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget for in-flight requests")
	seed := flag.Int64("seed", 1, "base seed for characterization runs")
	retryAttempts := flag.Int("retry-attempts", 4, "execution attempts per backend run before its transient error surfaces (1 disables retries)")
	jobsDir := flag.String("jobs-dir", "", "durable async job-queue directory (WAL + snapshots; empty = memory-only)")
	jobWorkers := flag.Int("job-workers", 2, "concurrently executing async jobs")
	tenantQuota := flag.Int("tenant-quota", 64, "queued+running async jobs allowed per tenant (0 = unbounded)")
	queueTimeout := flag.Duration("queue-timeout", 0, "how long a mitigate or characterize request may wait for one of the -max-jobs slots before it is shed with a typed 503 + Retry-After, lowest priority class first; past 64 such waiters it is shed at once (0 = wait until the request's deadline). Async job executions always wait, are admitted last and are never shed. Set it above the slowest request's service time, or healthy requests are shed")
	queueHighWater := flag.Int("queue-high-water", 0, "queued async jobs past which /healthz reports 503 unavailable (0 = never)")
	resultCache := flag.Bool("result-cache", true, "serve repeated identical mitigation requests from a content-addressed result cache, coalescing concurrent duplicates onto one execution")
	logLevel := flag.String("log-level", "info", "minimum structured-log level: debug, info, warn, or error")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	slowRequest := flag.Duration("slow-request", 500*time.Millisecond, "requests slower than this are kept as slow-request exemplars on /metrics and /debug/traces?slow=1")
	chaosPlan := chaos.Flags(flag.CommandLine)
	flag.Parse()

	lg := obs.NewLogger(os.Stderr, obs.LevelInfo)
	if lv, err := obs.ParseLevel(*logLevel); err != nil {
		lg.Error("bad -log-level", "error", err.Error())
		os.Exit(1)
	} else {
		lg = obs.NewLogger(os.Stderr, lv)
	}
	die := func(err error) {
		lg.Error(err.Error())
		os.Exit(1)
	}
	if err := chaosPlan.Validate(); err != nil {
		die(err)
	}
	if *queueTimeout < 0 {
		die(errors.New("-queue-timeout must not be negative"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Both durable journals share one path: open and log the recovery
	// here, compact every -snapshot-interval, close after the drain.
	var journals []journal
	opened := func(what, dir string, j journal, err error) {
		if err != nil {
			die(err)
		}
		rec := j.Stats().Recovery
		lg.Info("recovered "+what, "count", rec.Records, "dir", dir,
			"snapshot", rec.SnapshotRecords, "wal_replayed", rec.WALRecords,
			"wal_skipped", rec.WALSkipped, "torn_tail", rec.TailTruncated)
		journals = append(journals, j)
	}
	var dlog *profilestore.DiskLog
	if *dataDir != "" {
		var err error
		dlog, err = profilestore.OpenDiskLog(*dataDir)
		opened("profiles", *dataDir, dlog, err)
	}
	var jlog *jobs.Log
	if *jobsDir != "" {
		var err error
		jlog, err = jobs.OpenLog(*jobsDir)
		opened("jobs", *jobsDir, jlog, err)
	}

	srv := server.New(server.Config{
		Workers:        *workers,
		MaxJobs:        *maxJobs,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		MaxShots:       *maxShots,
		ProfileShots:   *profileShots,
		Seed:           *seed,
		Chaos:          *chaosPlan,
		RetryAttempts:  *retryAttempts,
		Persist:        dlog,
		JobsLog:        jlog,
		JobWorkers:     *jobWorkers,
		JobQuota:       *tenantQuota,
		QueueTimeout:   *queueTimeout,
		QueueHighWater: *queueHighWater,
		ResultCache:    *resultCache,
		Logger:         lg,
		SlowRequest:    *slowRequest,
	})
	if st := srv.JobStats(); st.RecoveredJobs > 0 {
		lg.Info("requeued recovered jobs interrupted mid-run",
			"requeued", st.RecoveredRequeued, "recovered", st.RecoveredJobs)
	}
	if *preload != "" {
		for _, path := range strings.Split(*preload, ",") {
			path = strings.TrimSpace(path)
			if path == "" {
				continue
			}
			if err := preloadProfile(srv, path); err != nil {
				die(err)
			}
			lg.Info("preloaded profile", "path", path)
		}
	}
	if *snapshotInterval > 0 {
		for _, j := range journals {
			go j.CompactLoop(ctx, *snapshotInterval)
		}
	}

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			die(err)
		}
		// nil handler = http.DefaultServeMux, where the pprof import
		// registered /debug/pprof. The profiling surface stays off the
		// API listener so it is never reachable from API clients.
		go func() { _ = http.Serve(pln, nil) }()
		lg.Info("pprof listening", "addr", pln.Addr().String())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		die(err)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	lg.Info("listening", "addr", ln.Addr().String())

	select {
	case err := <-errc:
		die(err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	lg.Info("draining in-flight requests", "budget", drainTimeout.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drain := func() {
		// Queued jobs are checkpointed; running jobs finish within the
		// remaining drain budget or are cancelled and journaled back to
		// queued, so the next boot re-executes them deterministically.
		res := srv.DrainJobs(shutdownCtx)
		if res.Finished > 0 || res.Requeued > 0 {
			lg.Info("job queue drained", "finished", res.Finished, "requeued", res.Requeued)
		}
		// Final compaction: a clean shutdown leaves fresh snapshots and
		// empty WALs, so the next boot replays nothing.
		for _, j := range journals {
			if err := j.Close(); err != nil {
				lg.Error("closing journal", "error", err.Error())
			}
		}
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		lg.Error("drain incomplete", "error", err.Error())
		_ = httpSrv.Close()
		drain()
		os.Exit(1)
	}
	drain()
	lg.Info("drained cleanly")
}

// journal is what the daemon does with either durable journal.
type journal interface {
	Stats() persist.JournalStats
	CompactLoop(ctx context.Context, interval time.Duration)
	Close() error
}

// preloadProfile imports one `characterize -out` file into the store —
// the same persist.ProfileRecord serialization the WAL and snapshots
// use, so anything the CLI saved is loadable here.
func preloadProfile(srv *server.Server, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rec, err := persist.LoadProfile(f)
	if err != nil {
		return err
	}
	p, err := profilestore.FromRecord(rec)
	if err != nil {
		return err
	}
	return srv.Store().Import(p)
}
