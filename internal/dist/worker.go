package dist

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
)

// Worker pulls leases from a coordinator, evaluates the leased grid
// points on its own simulation kernels, and streams each point's result
// back the moment it finishes — so the coordinator sees partial
// progress, and a worker killed late in a lease only costs the points
// it had not streamed yet. Any scenario can arrive: parameter sweeps
// lease grid runs, one-shot applications lease their single wrapped
// point. Testbeds are cached per job (keyed by their Config), so the
// leases of one sweep stop rebuilding the same topology. A worker keeps
// one sticky ID for its lifetime, so the coordinator's throughput EWMA
// and lease accounting survive reconnects.
type Worker struct {
	// Coordinator is the coordinator's base URL, e.g.
	// "http://127.0.0.1:9191".
	Coordinator string
	// ID is the sticky worker identity; NewWorker generates one.
	ID string
	// Token authenticates against a multi-tenant coordinator (gtwd
	// -tenants); sent as "Authorization: Bearer <token>" on every
	// request. Empty sends no header.
	Token string
	// Client is the HTTP client (default: 30s-timeout client).
	Client *http.Client
	// Poll is the back-off after a lease ask that came back empty or
	// failed; the coordinator's register reply overrides it. An idle
	// worker's ask is parked by the coordinator, not repeated every Poll.
	Poll time.Duration
	// BatchWindow coalesces points finishing within this window into one
	// streamed POST /v1/workers/points body, cutting the per-point HTTP
	// round trips of fine-grained sweeps. 0 streams each point the
	// moment it finishes (the single-point degenerate case). Points
	// coalesced but not yet flushed when a worker dies are simply part
	// of the unstreamed tail the coordinator re-runs, so batching
	// trades a slightly longer tail for fewer uploads — never
	// correctness.
	BatchWindow time.Duration
	// BatchMax caps the points per streamed body when BatchWindow is set
	// (default 16).
	BatchMax int
	// Logf, when set, receives worker events. Nil discards.
	Logf func(format string, args ...any)

	// DropLease, when set, is consulted before evaluating each lease;
	// returning true makes the worker silently abandon the lease — no
	// evaluation, no heartbeat, no upload — simulating a worker killed
	// mid-lease. Test hook for the fault-injection suite.
	DropLease func(l LeaseReply) bool
	// DropAfterPoints, when set, is consulted after each point is
	// evaluated and streamed; returning true makes the worker abandon
	// the rest of the lease — no further points, no final upload —
	// simulating a worker killed partway through a lease it had been
	// streaming. Test hook for the streamed-tail fault suite.
	DropAfterPoints func(l LeaseReply, streamed int) bool
	// BeforeUpload, when set, runs after evaluation and before the
	// result upload. Test hook (e.g. to double-upload for idempotency
	// tests).
	BeforeUpload func(up *ResultUpload)
	// TestbedCacheSize caps the testbed LRU (default 4 distinct
	// configurations).
	TestbedCacheSize int

	ttl time.Duration

	// Testbed LRU: leases reuse one testbed per (Config, scenario
	// epoch) across jobs, so back-to-back jobs on the same topology —
	// the common resubmission pattern the coordinator's point store
	// optimizes for — skip the topology rebuild too. The epoch
	// invalidates cached instances when the scenario set changes. The
	// worker loop is sequential, so no locking.
	tbCache map[tbKey]*tbEntry
	tbClock uint64
}

// tbKey identifies one cached testbed.
type tbKey struct {
	cfg   core.Config
	epoch uint64
}

// tbEntry is a cached testbed with its LRU tick.
type tbEntry struct {
	tb       *core.Testbed
	lastUsed uint64
}

// NewWorker builds a worker with a random sticky ID.
func NewWorker(coordinator string) *Worker {
	b := make([]byte, 4)
	_, _ = rand.Read(b)
	return &Worker{
		Coordinator: coordinator,
		ID:          "w-" + hex.EncodeToString(b),
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// postJSON posts in and decodes the reply into out (when non-nil and
// the status is 200). Returns the HTTP status code.
func (w *Worker) postJSON(ctx context.Context, path string, in, out any) (int, error) {
	return doJSON(ctx, w.Client, w.Token, http.MethodPost, w.Coordinator, path, in, out)
}

// Run registers with the coordinator and serves leases until ctx is
// cancelled. Transient coordinator errors and empty answers are retried
// with the poll interval as backoff.
func (w *Worker) Run(ctx context.Context) error {
	if w.Poll <= 0 {
		w.Poll = 200 * time.Millisecond
	}
	for {
		var reg RegisterReply
		_, err := w.postJSON(ctx, "/v1/workers/register", RegisterRequest{WorkerID: w.ID}, &reg)
		if err == nil {
			if reg.PollMS > 0 {
				w.Poll = time.Duration(reg.PollMS) * time.Millisecond
			}
			w.ttl = time.Duration(reg.LeaseTTLMS) * time.Millisecond
			break
		}
		w.logf("dist: worker %s: register: %v (retrying)", w.ID, err)
		if !sleepCtx(ctx, w.Poll) {
			return ctx.Err()
		}
	}
	w.logf("dist: worker %s serving %s (poll %s, lease ttl %s)", w.ID, w.Coordinator, w.Poll, w.ttl)
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var lease LeaseReply
		code, err := w.postJSON(ctx, "/v1/workers/lease",
			LeaseRequest{WorkerID: w.ID, WaitMS: parkWait(w.Client).Milliseconds()}, &lease)
		switch {
		case err != nil:
			w.logf("dist: worker %s: lease ask: %v", w.ID, err)
			fallthrough
		case code == http.StatusNoContent:
			if !sleepCtx(ctx, w.Poll) {
				return ctx.Err()
			}
			continue
		}
		if w.DropLease != nil && w.DropLease(lease) {
			w.logf("dist: worker %s dropping lease %s/%d (fault injection)", w.ID, lease.JobID, lease.Seq)
			continue
		}
		w.serveLease(ctx, lease)
	}
}

// sleepCtx sleeps d or until ctx is done; false means ctx ended.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// leaseTestbed resolves the testbed a lease's points run on: nil for
// NoShardTestbed sweeps, otherwise one testbed per (Config, scenario
// epoch) from the worker's LRU — reusing a testbed across leases and
// jobs is exactly reusing it across the points of one in-process
// shard, which the byte-identity guarantee already requires to be
// result-invariant. Least-recently-used configurations are evicted
// beyond TestbedCacheSize.
func (w *Worker) leaseTestbed(sw *core.Sweep, opts core.Options) *core.Testbed {
	if !sw.NeedsShardTestbed() {
		return nil
	}
	key := tbKey{
		cfg:   core.Config{WAN: opts.WAN, Extensions: opts.Extensions},
		epoch: core.ScenarioEpoch(),
	}
	if w.tbCache == nil {
		w.tbCache = make(map[tbKey]*tbEntry)
	}
	w.tbClock++
	if e := w.tbCache[key]; e != nil {
		e.lastUsed = w.tbClock
		return e.tb
	}
	size := w.TestbedCacheSize
	if size <= 0 {
		size = 4
	}
	for len(w.tbCache) >= size {
		var oldest tbKey
		first := true
		for k, e := range w.tbCache {
			if first || e.lastUsed < w.tbCache[oldest].lastUsed {
				oldest, first = k, false
			}
		}
		delete(w.tbCache, oldest)
	}
	e := &tbEntry{tb: core.New(key.cfg), lastUsed: w.tbClock}
	w.tbCache[key] = e
	return e.tb
}

// serveLease evaluates one lease point by point, streaming each result
// as it finishes, then completes the lease with the full upload.
func (w *Worker) serveLease(ctx context.Context, lease LeaseReply) {
	s, ok := core.Lookup(lease.Scenario)
	up := ResultUpload{
		WorkerID: w.ID, JobID: lease.JobID, Seq: lease.Seq,
		Lo: lease.Lo, Hi: lease.Hi,
	}
	if !ok {
		// A coordinator from a newer build may know scenarios this
		// worker does not; report per-point errors so the job fails
		// loudly rather than hanging.
		for i := lease.Lo; i < lease.Hi; i++ {
			up.Points = append(up.Points, PointResult{
				Index: i, Error: fmt.Sprintf("worker has no scenario %q", lease.Scenario),
			})
		}
		w.upload(ctx, &up)
		return
	}
	// Every scenario is executable as a plan: sweeps lease grid runs,
	// anything else arrives as its one-point wrapper.
	sw := core.PlanFor(s).Sweep()
	opts := lease.Opts.Options()

	// Heartbeat while evaluating, at a third of the lease TTL.
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	if w.ttl > 0 {
		go w.heartbeat(hbCtx, lease)
	}

	tb := w.leaseTestbed(sw, opts)
	stream := lease.Hi-lease.Lo > 1 // a 1-point lease's final upload IS its stream
	batchMax := w.BatchMax
	if batchMax <= 0 {
		batchMax = 16
	}
	// pending coalesces finished points awaiting a streamed upload; with
	// BatchWindow unset every point flushes immediately, so the
	// single-point path is the degenerate one-entry batch.
	var pending []PointResult
	var batchStart time.Time
	flush := func() bool {
		if len(pending) == 0 {
			return true
		}
		ok := w.streamPoints(ctx, lease, pending)
		pending = pending[:0]
		return ok
	}
	start := time.Now()
	for i := lease.Lo; i < lease.Hi; i++ {
		res, err := sw.EvalPoint(ctx, tb, opts, i)
		if ctx.Err() != nil {
			w.logf("dist: worker %s abandoning lease %s/%d: %v", w.ID, lease.JobID, lease.Seq, ctx.Err())
			return
		}
		pr := PointResult{Index: i}
		if err != nil {
			pr.Error = err.Error()
		} else if b, encErr := sw.EncodePoint(res); encErr != nil {
			pr.Error = "encode: " + encErr.Error()
		} else {
			pr.Value = b
		}
		up.Points = append(up.Points, pr)
		if stream {
			if len(pending) == 0 {
				batchStart = time.Now()
			}
			pending = append(pending, pr)
			if w.BatchWindow <= 0 || len(pending) >= batchMax ||
				time.Since(batchStart) >= w.BatchWindow || i == lease.Hi-1 {
				if !flush() {
					w.logf("dist: worker %s: lease %s/%d gone mid-stream; abandoning its tail",
						w.ID, lease.JobID, lease.Seq)
					return
				}
			}
		}
		if w.DropAfterPoints != nil && w.DropAfterPoints(lease, len(up.Points)) {
			w.logf("dist: worker %s dying after streaming %d point(s) of lease %s/%d (fault injection)",
				w.ID, len(up.Points), lease.JobID, lease.Seq)
			return
		}
	}
	up.ElapsedNS = time.Since(start).Nanoseconds()
	stopHB()
	if w.BeforeUpload != nil {
		w.BeforeUpload(&up)
	}
	w.upload(ctx, &up)
}

// streamPoints uploads a batch of finished points of a held lease in
// one body. It reports false only when the coordinator says the lease
// is gone; transient errors are tolerated — the final upload carries
// every point again.
func (w *Worker) streamPoints(ctx context.Context, lease LeaseReply, prs []PointResult) bool {
	var reply PointsReply
	_, err := w.postJSON(ctx, "/v1/workers/points", PointsUpload{
		WorkerID: w.ID, JobID: lease.JobID, Seq: lease.Seq,
		Points: append([]PointResult(nil), prs...),
	}, &reply)
	if err != nil {
		w.logf("dist: worker %s: streaming %d point(s) of lease %s/%d: %v (final upload will cover them)",
			w.ID, len(prs), lease.JobID, lease.Seq, err)
		return true
	}
	return reply.OK
}

// heartbeat extends the lease every ttl/3 until cancelled.
func (w *Worker) heartbeat(ctx context.Context, lease LeaseReply) {
	iv := w.ttl / 3
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var hb HeartbeatReply
			_, err := w.postJSON(ctx, "/v1/workers/heartbeat",
				HeartbeatRequest{WorkerID: w.ID, JobID: lease.JobID, Seq: lease.Seq}, &hb)
			if err == nil && !hb.OK {
				return // lease is gone; evaluation result will be ignored
			}
		}
	}
}

// upload posts the result, retrying transient failures. Duplicate
// replies are success: the lease completed through another path.
func (w *Worker) upload(ctx context.Context, up *ResultUpload) {
	for attempt := 0; attempt < 5; attempt++ {
		var reply ResultReply
		_, err := w.postJSON(ctx, "/v1/workers/result", up, &reply)
		if err == nil {
			if reply.Duplicate {
				w.logf("dist: worker %s: lease %s/%d already completed (duplicate upload ignored)",
					w.ID, up.JobID, up.Seq)
			}
			return
		}
		if ctx.Err() != nil {
			return
		}
		w.logf("dist: worker %s: upload %s/%d failed: %v (retrying)", w.ID, up.JobID, up.Seq, err)
		if !sleepCtx(ctx, w.Poll) {
			return
		}
	}
}
