// Command gtwd is the distributed-run coordinator: it serves scenario
// runs to any number of concurrent clients through a job queue, and
// fans every scenario's execution plan — sweep grids and one-point
// wrapped applications alike — out to gtwworker processes over the
// lease-based JSON/HTTP protocol of internal/dist.
//
// Local shards and remote workers steal from the same work queue, so a
// coordinator with zero workers still completes every job, and each
// worker that connects simply makes the queue drain faster. Idle workers
// do not poll: their lease asks park on the coordinator until a job
// publishes work (-poll is only their back-off after an empty or failed
// ask), and a client's wait is one held request answered with the
// finished report. Workers upload each point's result as it finishes,
// once; a lease not heard from within -lease-ttl is requeued, but only
// the tail it had not uploaded re-runs. Killed workers cost time, never results:
// reports stay byte-identical to a single-kernel run at any worker
// count.
//
// Finished points land in a content-addressed store (-cache entries,
// optionally -cache-bytes total wire bytes with -cache-entry-bytes per
// point, keyed by scenario + grid coordinates + the options the point
// actually depends on), so a later job whose grid overlaps —
// resubmitted, or differing only in irrelevant options — reuses them
// instead of re-simulating; job statuses report the reuse as
// point_hits.
//
// With -data-dir the coordinator is durable: every state transition —
// job lifecycle, each streamed point, worker stats — is journaled to a
// write-ahead log under the directory (compacted into snapshots every
// -snapshot). A gtwd killed mid-sweep — SIGKILL included — and
// restarted on the same -data-dir recovers the store, resumes
// interrupted jobs under their old IDs re-running only never-streamed
// points, keeps finished jobs pollable, and remembers reconnecting
// workers' throughput. Without -data-dir state is in-memory and dies
// with the process, as before.
//
// With -tenants FILE the coordinator is multi-tenant: the JSON file
// maps bearer tokens to named tenants with a priority class (high /
// normal / bulk) and an optional in-flight point cap, every endpoint
// except /healthz requires a configured token, lease grants follow
// weighted fair share across the tenants' queued work, usage is
// accounted per tenant (fresh points vs. store hits, so repeat tenants
// meter as cheap), and every auth rejection and job transition lands
// in the audit log (journaled under -data-dir when set). Without
// -tenants everything runs as a single anonymous tenant, as before.
// Either way, live counters are served at GET /v1/metrics (Prometheus
// text format) and job/worker/lease transitions stream from GET
// /v1/events (SSE).
//
// Usage:
//
//	gtwd [-addr :9191] [-lease-ttl 10s] [-local-shards 1]
//	     [-cache 4096] [-cache-bytes 0] [-cache-entry-bytes 0]
//	     [-jobs 4] [-poll 200ms] [-data-dir DIR] [-snapshot 1m]
//	     [-tenants tenants.json]
//
// Then point workers and clients at it:
//
//	gtwworker -coordinator http://host:9191 [-token TOK]
//	gtwrun -connect http://host:9191 [-token TOK] figure1-throughput
//	gtwtop -coordinator http://host:9191 [-token TOK]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "repro" // register every scenario

	"repro/internal/dist"
	"repro/internal/persist"
	"repro/internal/tenant"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the testable body of main: it parses args, serves until
// SIGINT/SIGTERM or a listen error, shuts the coordinator and then its
// journal down, and reports the process exit code (0 on a clean stop,
// 1 on an error, 2 on a flag error). Log lines go to stderr.
func run(args []string, stderr io.Writer) int {
	logger := log.New(stderr, "gtwd: ", log.LstdFlags)
	fs := flag.NewFlagSet("gtwd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":9191", "listen address")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second,
		"how long a worker may hold a lease without heartbeating before its points are requeued")
	localShards := fs.Int("local-shards", 1,
		"in-process shards the coordinator contributes to every distributed job (negative = pure remote)")
	cacheSize := fs.Int("cache", 4096,
		"content-addressed point-store entries (finished grid points, LRU-evicted)")
	cacheBytes := fs.Int64("cache-bytes", 0,
		"point-store total wire-byte budget, LRU-evicted (0 = entry bound only)")
	cacheEntryBytes := fs.Int("cache-entry-bytes", 0,
		"largest single point result the store will keep, in bytes (0 = no cap)")
	maxJobs := fs.Int("jobs", 4, "concurrently running jobs; further submissions queue FIFO")
	poll := fs.Duration("poll", 200*time.Millisecond,
		"retry back-off handed to workers, between asks that came back empty or failed; idle workers park on the coordinator instead of polling")
	dataDir := fs.String("data-dir", "",
		"journal coordinator state here (WAL + snapshots) and recover it on restart; empty = in-memory only")
	snapshot := fs.Duration("snapshot", time.Minute,
		"how often to compact the -data-dir journal into a snapshot (negative: only on shutdown and log growth)")
	tenantsFile := fs.String("tenants", "",
		"tenant config file (JSON: token, name, class, max in-flight); enables token auth and fair-share scheduling")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var tenants *tenant.Registry
	if *tenantsFile != "" {
		var err error
		tenants, err = tenant.Load(*tenantsFile)
		if err != nil {
			logger.Printf("load -tenants %s: %v", *tenantsFile, err)
			return 1
		}
	}

	var store persist.Store
	var disk *persist.Disk
	if *dataDir != "" {
		var err error
		disk, err = persist.Open(*dataDir, persist.DiskOptions{
			SnapshotEvery: *snapshot,
			Logf:          logger.Printf,
		})
		if err != nil {
			logger.Printf("open -data-dir %s: %v", *dataDir, err)
			return 1
		}
		store = disk
	}

	c := dist.New(dist.Config{
		LeaseTTL:        *leaseTTL,
		Poll:            *poll,
		LocalShards:     *localShards,
		CacheSize:       *cacheSize,
		CacheBytes:      *cacheBytes,
		CacheEntryBytes: *cacheEntryBytes,
		MaxJobs:         *maxJobs,
		Store:           store,
		Tenants:         tenants,
		Logf:            logger.Printf,
	})

	srv := &http.Server{Addr: *addr, Handler: c.Handler()}
	// Shutdown waits for active requests, and an idle fleet's are parked
	// on the coordinator (lease asks, job waits, gtwtop's event stream):
	// release them first, or SIGTERM burns the whole 5 s budget.
	srv.RegisterOnShutdown(c.ReleaseParked)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
	}()

	durable := "in-memory state"
	if disk != nil {
		durable = "journaling to " + *dataDir
	}
	auth := "open access"
	if tenants != nil {
		auth = fmt.Sprintf("%d tenant(s), token auth", len(tenants.Tenants()))
	}
	logger.Printf("coordinator listening on %s (lease ttl %s, %d local shard(s), point store %d, %s, %s)",
		*addr, *leaseTTL, *localShards, *cacheSize, durable, auth)
	code := 0
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		// The server never served: stop waiting for a signal and take
		// the same way down, so an open journal is still closed.
		logger.Print(err)
		code = 1
		stop()
	}
	// Shutdown order matters for durability: requests in flight (a
	// result upload, a released wait) get their answers — ListenAndServe
	// returns the moment Shutdown starts, not when it is done — then
	// Close() cancels running jobs and waits for them to journal their
	// interrupted state, THEN the disk store compacts its final snapshot.
	<-drained
	c.Close()
	if disk != nil {
		if err := disk.Close(); err != nil {
			logger.Printf("closing -data-dir journal: %v", err)
			code = 1
		}
	}
	logger.Printf("coordinator stopped")
	return code
}
