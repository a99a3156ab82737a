// Command gtwworker is the distributed-run worker: it pulls leases from
// a gtwd coordinator, evaluates the leased grid points on its own
// simulation kernels, and uploads each point's result once — the batch
// carrying a lease's last point completes it, and an empty batch is the
// heartbeat while a slow point computes. Any scenario can arrive —
// sweeps lease runs of their grid, one-shot applications lease their
// single wrapped point — and testbeds are cached per job (keyed by
// Config), so the leases of one sweep stop rebuilding the same
// topology.
//
// The worker's ID is sticky for the process lifetime (or across
// restarts when pinned with -id): the coordinator's per-worker
// throughput EWMA hangs off it, steering larger leases to workers that
// have proven fast — so a worker on beefier hardware automatically
// takes a larger share of the grid, WANify-style.
//
// Usage:
//
//	gtwworker -coordinator http://host:9191 [-id worker-a] [-poll 200ms] [-token TOK]
//
// Uploads are paced by their own cost, with nothing to tune: mid-lease,
// the worker uploads its pending points once they took at least as
// long to evaluate as its last upload round trip (the register round
// trip before the first). A point slower than a round trip streams the
// moment it finishes; cheap points ride the next due batch or the
// lease's last one. A worker that dies between uploads loses about one
// round trip of evaluation plus one point, which re-runs elsewhere;
// reports stay byte-identical. A batch whose answer is lost is resent
// with the next.
//
// Worker and coordinator must speak the same worker protocol: the
// register handshake carries its number, and on a mismatch gtwworker
// exits with an error that states both instead of retrying.
//
// An idle worker costs the coordinator nothing: its lease ask is held
// there until a job has work for it, so -poll only paces retries after
// an empty or failed ask.
//
// Run as many as you like; killing one mid-lease only delays its
// points until the lease TTL expires and they are re-run elsewhere.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "repro" // register every scenario

	"repro/internal/dist"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(code)
}

// run is the testable body of main: it parses args, serves leases until
// ctx ends or the coordinator refuses the worker, and reports the
// process exit code (0 on a clean stop, 1 on an error, 2 on a flag
// error). Log lines go to stderr.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	logger := log.New(stderr, "gtwworker: ", log.LstdFlags)
	fs := flag.NewFlagSet("gtwworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coord := fs.String("coordinator", "http://127.0.0.1:9191", "coordinator base URL")
	id := fs.String("id", "", "sticky worker ID (default: random, kept for the process lifetime)")
	poll := fs.Duration("poll", 200*time.Millisecond,
		"retry back-off after an empty or failed lease ask (the coordinator's register reply overrides it); idle workers park on the coordinator instead of polling")
	token := fs.String("token", "",
		"tenant token for a -tenants coordinator (sent as Authorization: Bearer)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	w := dist.NewWorker(*coord)
	w.Token = *token
	if *id != "" {
		w.ID = *id
	}
	w.Poll = *poll
	w.Logf = logger.Printf

	logger.Printf("worker %s serving %s", w.ID, *coord)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		logger.Print(err)
		return 1
	}
	logger.Printf("worker %s stopped", w.ID)
	return 0
}
