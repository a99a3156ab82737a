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
// points on its own simulation kernels, and uploads each point's result
// once: mid-lease, in a batch as soon as the points pending since the
// last acknowledged upload took at least as long to evaluate as that
// upload's round trip, or in the lease's last batch, which completes
// it. A point that costs more than a round trip therefore streams the
// moment it finishes, so the coordinator sees partial progress, while
// cheap points ride the next due batch instead of costing a round trip
// each; a worker killed mid-lease costs about one round trip of
// evaluation plus one point. Any scenario can arrive: parameter sweeps
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
	// Logf, when set, receives worker events. Nil discards.
	Logf func(format string, args ...any)

	// DropAfterPoints, when set, is consulted before a lease's first
	// point (evaluated == 0) and after each point is evaluated and, if
	// the flush rule made a batch due, uploaded; returning true makes the
	// worker silently abandon the rest of the lease — no further points,
	// no last batch — simulating a worker killed holding it. Test hook
	// for the fault-injection suites.
	DropAfterPoints func(l LeaseReply, evaluated int) bool
	// BeforeUpload, when set, runs after evaluation and before the
	// lease's last batch is sent. Test hook (e.g. to double-upload for
	// idempotency tests).
	BeforeUpload func(up *PointsUpload)
	// TestbedCacheSize caps the testbed LRU (default 4 distinct
	// configurations).
	TestbedCacheSize int

	ttl time.Duration
	// rtt is the worker's last acknowledged upload round trip — the
	// register round trip before the first — that the flush rule weighs
	// pending evaluation against.
	rtt time.Duration
	// costs, when set, stands in for the flush rule's two measured
	// figures after grid point i — its evaluation time and the round
	// trip — so tests pin the rule instead of depending on loopback
	// timing.
	costs func(i int) (eval, roundTrip time.Duration)

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
// with the poll interval as backoff; a coordinator that speaks another
// worker protocol is not — retrying cannot help, and uploads the other
// side cannot complete would loop forever — so Run returns an error.
func (w *Worker) Run(ctx context.Context) error {
	if w.Poll <= 0 {
		w.Poll = 200 * time.Millisecond
	}
	for {
		var reg RegisterReply
		start := time.Now()
		code, err := w.postJSON(ctx, "/v1/workers/register", RegisterRequest{WorkerID: w.ID, Proto: wireProto}, &reg)
		if code == http.StatusBadRequest || (err == nil && reg.Proto != wireProto) {
			return fmt.Errorf("dist: worker %s speaks protocol %d, coordinator %s answers %d (0: none yet) and %v",
				w.ID, wireProto, w.Coordinator, reg.Proto, err)
		}
		if err == nil {
			if reg.PollMS > 0 {
				w.Poll = time.Duration(reg.PollMS) * time.Millisecond
			}
			w.ttl = time.Duration(reg.LeaseTTLMS) * time.Millisecond
			w.rtt = time.Since(start)
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

// serveLease evaluates one lease point by point. After each point but
// the last it uploads the pending points if they took at least the last
// round trip to evaluate; the batch that carries the lease's last point
// completes it.
func (w *Worker) serveLease(ctx context.Context, lease LeaseReply) {
	s, ok := core.Lookup(lease.Scenario)
	// up holds the points the coordinator has not acknowledged yet.
	up := PointsUpload{JobID: lease.JobID, Seq: lease.Seq}
	if !ok {
		// A coordinator from a newer build may know scenarios this
		// worker does not; report per-point errors so the job fails
		// loudly rather than hanging.
		for i := lease.Lo; i < lease.Hi; i++ {
			up.Points = append(up.Points, PointResult{
				Index: i, Error: fmt.Sprintf("worker has no scenario %q", lease.Scenario),
			})
		}
		w.upload(ctx, &up, true)
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
	// elapsed is the lease's evaluation time, pending the part of it
	// (as the flush rule weighs it) not yet acknowledged.
	var elapsed, pending time.Duration
	for i := lease.Lo; i < lease.Hi; i++ {
		if n := i - lease.Lo; w.DropAfterPoints != nil && w.DropAfterPoints(lease, n) {
			w.logf("dist: worker %s dying after evaluating %d point(s) of lease %s/%d (fault injection)",
				w.ID, n, lease.JobID, lease.Seq)
			return
		}
		start := time.Now()
		res, err := sw.EvalPoint(ctx, tb, opts, i)
		if ctx.Err() != nil {
			w.logf("dist: worker %s abandoning lease %s/%d: %v", w.ID, lease.JobID, lease.Seq, ctx.Err())
			return
		}
		cost, rtt := time.Since(start), w.rtt
		elapsed += cost
		if w.costs != nil {
			cost, rtt = w.costs(i)
		}
		pending += cost
		pr := PointResult{Index: i}
		if err != nil {
			pr.Error = err.Error()
		} else if b, encErr := sw.EncodePoint(res); encErr != nil {
			pr.Error = "encode: " + encErr.Error()
		} else {
			pr.Value = b
		}
		up.Points = append(up.Points, pr)
		if i == lease.Hi-1 || pending < rtt {
			continue // the lease's last batch, or not yet worth a round trip
		}
		if !w.upload(ctx, &up, false) {
			w.logf("dist: worker %s: lease %s/%d gone mid-lease; abandoning its tail", w.ID, lease.JobID, lease.Seq)
			return
		}
		if len(up.Points) == 0 {
			pending = 0
		}
	}
	up.ElapsedNS = elapsed.Nanoseconds()
	stopHB()
	if w.BeforeUpload != nil {
		w.BeforeUpload(&up)
	}
	w.upload(ctx, &up, true)
}

// upload posts the unacknowledged points of a held lease — mid-lease,
// or as the last batch that completes it — and reports whether the
// lease is still worth working on: false once the coordinator answers
// that it is gone, or refuses the batch (any 4xx: it has already
// requeued what it lacked). An acknowledged batch is cleared from up,
// and its round trip becomes the worker's rtt; one whose answer was
// lost stays, to be sent again: a mid-lease one with the points that
// finish next, the last one after a Poll, five times in all. The
// heartbeat's empty uploads run beside the lease loop and leave rtt
// alone.
func (w *Worker) upload(ctx context.Context, up *PointsUpload, last bool) bool {
	path, attempts := "/v1/workers/points", 1
	if last {
		path, attempts = "/v1/workers/result", 5
	}
	for {
		var reply PointsReply
		start := time.Now()
		code, err := w.postJSON(ctx, path, up, &reply)
		if err == nil {
			if len(up.Points) > 0 {
				w.rtt = time.Since(start)
			}
			up.Points = up.Points[:0]
			return reply.OK
		}
		if ctx.Err() != nil || (code >= 400 && code < 500) {
			return false
		}
		w.logf("dist: worker %s: upload for lease %s/%d: %v (%d point(s) stay pending)", w.ID, up.JobID, up.Seq, err, len(up.Points))
		if attempts--; attempts == 0 || !sleepCtx(ctx, w.Poll) {
			return attempts == 0
		}
	}
}

// heartbeat extends the lease every ttl/3 — with the upload that
// carries no points — until cancelled or the lease is gone.
func (w *Worker) heartbeat(ctx context.Context, lease LeaseReply) {
	t := time.NewTicker(max(w.ttl/3, 10*time.Millisecond))
	defer t.Stop()
	beat := PointsUpload{JobID: lease.JobID, Seq: lease.Seq}
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if !w.upload(ctx, &beat, false) {
				return // lease is gone; what is evaluated from here on will be ignored
			}
		}
	}
}
