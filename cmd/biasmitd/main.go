// Command biasmitd serves readout-error mitigation as a long-lived
// daemon: characterize a machine's RBMS once per calibration cycle,
// cache the profile, and serve baseline/SIM/AIM runs against it over an
// HTTP/JSON API (see internal/server for the surface).
//
// Usage:
//
//	biasmitd -addr 127.0.0.1:8642
//	biasmitd -addr :0 -workers 4 -profile-ttl 30m -refresh-interval 5m
//	biasmitd -data-dir /var/lib/biasmitd -snapshot-interval 5m -max-profiles 64
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
	profileTTL := flag.Duration("profile-ttl", 30*time.Minute, "how long cached RBMS profiles stay fresh")
	refreshInterval := flag.Duration("refresh-interval", 0, "background profile refresh period (0 = disabled)")
	dataDir := flag.String("data-dir", "", "durable profile store directory (WAL + snapshots; empty = memory-only)")
	snapshotInterval := flag.Duration("snapshot-interval", 5*time.Minute, "how often the -data-dir and -jobs-dir WALs are compacted into snapshots")
	maxProfiles := flag.Int("max-profiles", 0, "profile cache bound; past it the LRU profile is evicted (0 = unbounded)")
	preload := flag.String("preload", "", "comma-separated profile files (characterize -out format) imported at boot")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget for in-flight requests")
	seed := flag.Int64("seed", 1, "base seed for characterization runs")
	retryAttempts := flag.Int("retry-attempts", 4, "execution attempts per backend run before its transient error surfaces (1 disables retries)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive failed runs that open a machine's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 30*time.Second, "how long an open breaker rejects work before probing again")
	jobsDir := flag.String("jobs-dir", "", "durable async job-queue directory (WAL + snapshots; empty = memory-only)")
	jobWorkers := flag.Int("job-workers", 2, "concurrently executing async jobs")
	tenantQuota := flag.Int("tenant-quota", 64, "queued+running async jobs allowed per tenant (0 = unbounded)")
	autoInflight := flag.Bool("max-inflight-auto", false, "adapt the in-flight ceiling to observed latency (AIMD) and shed excess with typed 503s, instead of the static -max-jobs gate")
	queueTimeout := flag.Duration("queue-timeout", 100*time.Millisecond, "how long an admission-queued request may wait before being shed (needs -max-inflight-auto)")
	brownout := flag.Bool("brownout", false, "degrade AIM to SIM to baseline under sustained admission pressure instead of shedding, stepping back up when it clears")
	brownoutDwellDown := flag.Duration("brownout-dwell-down", 2*time.Second, "sustained pressure required before stepping a brownout tier down")
	brownoutDwellUp := flag.Duration("brownout-dwell-up", 5*time.Second, "sustained calm required before stepping a brownout tier back up")
	retryBudget := flag.Float64("retry-budget", 0.1, "retry traffic allowed as a fraction of fresh admitted work (0 disables the budget)")
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
		Workers:           *workers,
		MaxJobs:           *maxJobs,
		DefaultTimeout:    *defaultTimeout,
		MaxTimeout:        *maxTimeout,
		MaxShots:          *maxShots,
		ProfileShots:      *profileShots,
		ProfileTTL:        *profileTTL,
		Seed:              *seed,
		Chaos:             *chaosPlan,
		RetryAttempts:     *retryAttempts,
		BreakerThreshold:  *breakerThreshold,
		BreakerCooldown:   *breakerCooldown,
		Persist:           dlog,
		MaxProfiles:       *maxProfiles,
		JobsLog:           jlog,
		JobWorkers:        *jobWorkers,
		JobQuota:          *tenantQuota,
		AutoInflight:      *autoInflight,
		QueueTimeout:      *queueTimeout,
		Brownout:          *brownout,
		BrownoutDwellDown: *brownoutDwellDown,
		BrownoutDwellUp:   *brownoutDwellUp,
		RetryBudget:       *retryBudget,
		QueueHighWater:    *queueHighWater,
		ResultCache:       *resultCache,
		Logger:            lg,
		SlowRequest:       *slowRequest,
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
	if *refreshInterval > 0 {
		go srv.Store().RefreshLoop(ctx, *refreshInterval)
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
