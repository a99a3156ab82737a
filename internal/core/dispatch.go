package core

import (
	"maps"
	"math"
	"slices"
	"sync"
	"time"
)

// This file is the sweep engine's work dispatch layer. PR 3's executor
// split the grid into contiguous batches, one per shard, fixed up
// front; grids with very uneven point costs (figure1's Ethernet-MTU
// probe is ~10x its siblings) left shards idle while one ground through
// the expensive batch. The LeaseQueue instead hands out leases — small
// contiguous runs of grid points — on demand from one shared queue, so
// a shard that finishes early steals the next lease instead of going
// idle. The same queue serves two kinds of consumers: the in-process
// shard goroutines of Sweep.Run, and the remote workers of
// internal/dist, which check leases out over HTTP and can die holding
// them (Requeue puts an expired lease's points back).
//
// Per-worker throughput EWMAs steer lease sizes: a worker that has
// proven fast gets proportionally larger leases, a slow one smaller —
// the WANify-style runtime balancing from PAPERS.md, applied to grid
// points instead of bytes. Under that sits a floor priced from what
// completed leases cost: a lease is never carved so small that its
// predicted evaluation is shorter than the overhead of granting and
// completing it, so a job of cheap points takes a few leases, not one
// round trip per handful of points.

// Lease is a contiguous run of grid points [Lo, Hi) checked out by one
// worker. Seq is unique within the queue and is what makes result
// delivery idempotent: a lease completes at most once.
type Lease struct {
	Seq    uint64 `json:"seq"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	Worker string `json:"worker"`
}

// Points reports the number of grid points in the lease.
func (l Lease) Points() int { return l.Hi - l.Lo }

// span is a pending run of grid points [lo, hi).
type span struct{ lo, hi int }

// LeaseQueue hands out grid-point leases to sweep workers and tracks
// their completion: leases are carved off the front of the pending
// spans at a size steered by the worker's throughput EWMA. Safe for
// concurrent use.
type LeaseQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	spans       []span // pending work, front is handed out next
	total       int
	completed   int
	workers     int // expected concurrency (lease sizing hint)
	seq         uint64
	outstanding map[uint64]Lease
	rate        map[string]float64 // per-worker EWMA, points/sec
	skip        SkipFunc
	closed      bool
	done        chan struct{}

	// What completed leases cost, summed over every Complete with a
	// measured evaluation time: that time and their points, and their
	// overhead — wall time from grant to completion minus the
	// evaluation. The lease floor is priced from them.
	evalNS, evalPoints int64
	overheadNS, costed int64
}

// rateAlpha is the EWMA smoothing factor for per-worker throughput.
const rateAlpha = 0.4

// NewWorkStealingDispatcher builds the queue for a sweep run over
// `points` grid points with `workers` expected concurrent consumers.
func NewWorkStealingDispatcher(points, workers int) *LeaseQueue {
	if workers < 1 {
		workers = 1
	}
	q := &LeaseQueue{
		total:       points,
		workers:     workers,
		outstanding: make(map[uint64]Lease),
		rate:        make(map[string]float64),
		done:        make(chan struct{}),
	}
	q.cond = sync.NewCond(&q.mu)
	if points > 0 {
		q.spans = []span{{0, points}}
	} else {
		close(q.done)
	}
	return q
}

// SkipFunc reports which points of [lo, hi) the caller already has
// results for, having recorded them itself (SweepRun.Prefill): index k
// of the mask covers grid point lo+k. A nil or all-false mask skips
// nothing.
//
// The coordinator's point store is the canonical predicate: a point
// another job already computed — before this one was submitted, or
// streamed by a concurrent overlapping job since — is served from the
// store instead of being leased and re-simulated.
type SkipFunc func(lo, hi int) []bool

// SetSkip installs the skip predicate; call it before the first lease
// is asked for. The predicate is applied once over the whole grid right
// here — so a grid that is already fully known completes without any
// worker asking — and again over every freshly carved lease, whose
// skipped points are credited as completed and whose remaining runs are
// re-carved: workers only ever receive points that still need
// computing. The queue never calls the predicate with its lock held.
func (q *LeaseQueue) SetSkip(skip SkipFunc) {
	mask := skip(0, q.total)
	q.mu.Lock()
	defer q.mu.Unlock()
	q.skip = skip
	if len(mask) == q.total && slices.Contains(mask, true) {
		q.spans, q.completed = missingSpans(0, mask)
		q.finishLocked()
	}
}

// leaseSizeLocked picks how many points to carve for worker w.
//
// The base size halves the remaining work across the expected workers
// (remaining/(2*workers), at least 1): early leases are big enough to
// amortize dispatch, late leases shrink toward single points so the
// tail balances. A worker with a throughput history gets the base
// scaled by its speed relative to the fleet mean, clamped to [1, 2x] —
// faster workers take proportionally larger bites. No lease is smaller
// than floorLocked's, and none larger than remaining.
func (q *LeaseQueue) leaseSizeLocked(w string, remaining int) int {
	base := (remaining + 2*q.workers - 1) / (2 * q.workers)
	if base < 1 {
		base = 1
	}
	if r, ok := q.rate[w]; ok && r > 0 {
		var sum float64
		for _, v := range q.rate {
			sum += v
		}
		mean := sum / float64(len(q.rate))
		if mean > 0 {
			scaled := int(float64(base)*(r/mean) + 0.5)
			if scaled < 1 {
				scaled = 1
			}
			if max := 2 * base; scaled > max {
				scaled = max
			}
			base = scaled
		}
	}
	return min(max(base, q.floorLocked(remaining)), remaining)
}

// floorLocked is the smallest lease worth its overhead: the mean
// per-lease overhead divided by the mean evaluation time per point,
// rounded up, and at most remaining. It is 0 until a lease with
// measured evaluation time has completed, and stays 0 while completions
// carry no overhead, as in-process shards' do (they use Complete).
func (q *LeaseQueue) floorLocked(remaining int) int {
	if q.evalNS <= 0 || q.costed == 0 {
		return 0
	}
	perPoint := float64(q.evalNS) / float64(q.evalPoints)
	overhead := float64(q.overheadNS) / float64(q.costed)
	return int(min(math.Ceil(overhead/perPoint), float64(remaining)))
}

// carveLocked carves the next lease, or returns false if no work is
// pending right now.
func (q *LeaseQueue) carveLocked(worker string) (Lease, bool) {
	if q.closed || len(q.spans) == 0 {
		return Lease{}, false
	}
	sp := q.spans[0]
	n := q.leaseSizeLocked(worker, sp.hi-sp.lo)
	if sp.lo+n == sp.hi {
		q.spans = q.spans[1:]
	} else {
		q.spans[0].lo = sp.lo + n
	}
	q.seq++
	l := Lease{Seq: q.seq, Lo: sp.lo, Hi: sp.lo + n, Worker: worker}
	q.outstanding[l.Seq] = l
	return l, true
}

// next hands out the next lease that still has something to compute.
// With block set it waits while leases are outstanding — they may
// complete (ending the sweep) or be requeued (bringing new work).
func (q *LeaseQueue) next(worker string, block bool) (Lease, bool) {
	for {
		q.mu.Lock()
		l, ok := q.carveLocked(worker)
		for !ok && block && !q.closed && q.completed < q.total {
			q.cond.Wait()
			l, ok = q.carveLocked(worker)
		}
		skip := q.skip
		q.mu.Unlock()
		if !ok || skip == nil {
			return l, ok
		}
		mask := skip(l.Lo, l.Hi)
		if len(mask) != l.Points() || !slices.Contains(mask, true) {
			return l, true
		}
		// Credit the skipped points; the missing runs go back to the
		// front of the queue, so the next carve picks up exactly the
		// points that still need computing.
		q.RequeuePartial(l, mask)
	}
}

// Next blocks until a lease is available for the named worker and
// returns it, or returns ok=false when every point has completed (or
// the queue was closed). In-process shard loops use Next.
func (q *LeaseQueue) Next(worker string) (Lease, bool) { return q.next(worker, true) }

// TryNext is the non-blocking form for polling callers (the
// coordinator's HTTP lease handler): ok=false means nothing is
// available right now, not that the sweep is over.
func (q *LeaseQueue) TryNext(worker string) (Lease, bool) { return q.next(worker, false) }

// Complete marks a lease's points evaluated; elapsed, the time they
// took to evaluate, feeds the worker's throughput estimate and the
// queue's per-point cost. It reports whether the lease was still
// outstanding: completing one that already completed, or was requeued
// after expiry, changes nothing and returns false — which is what makes
// duplicate result uploads idempotent. Complete prices the lease at no
// overhead; a caller that knows the wall time since the grant passes it
// through SweepRun.Complete.
func (q *LeaseQueue) Complete(l Lease, elapsed time.Duration) bool {
	return q.complete(l, elapsed, elapsed)
}

// complete is Complete with wall, the time from the lease's grant to
// now, whose excess over elapsed is the lease's overhead.
func (q *LeaseQueue) complete(l Lease, elapsed, wall time.Duration) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.outstanding[l.Seq]; !ok {
		return false
	}
	delete(q.outstanding, l.Seq)
	q.completed += l.Points()
	if secs := elapsed.Seconds(); secs > 0 {
		pps := float64(l.Points()) / secs
		if old, ok := q.rate[l.Worker]; ok {
			q.rate[l.Worker] = (1-rateAlpha)*old + rateAlpha*pps
		} else {
			q.rate[l.Worker] = pps
		}
		q.evalNS += elapsed.Nanoseconds()
		q.evalPoints += int64(l.Points())
		q.overheadNS += max(wall-elapsed, 0).Nanoseconds()
		q.costed++
	}
	q.finishLocked()
	return true
}

// finishLocked closes Done once every point has completed and wakes
// workers blocked in Next.
func (q *LeaseQueue) finishLocked() {
	if q.completed == q.total {
		close(q.done)
	}
	q.cond.Broadcast()
}

// RequeuePartial retires an outstanding lease that will not complete:
// finished[k] (covering point l.Lo+k) counts as completed — streamed by
// the worker before it died, or skipped — and the unfinished runs go
// back to the front of the queue, so retried points do not wait behind
// the whole remaining grid. A finished mask of the wrong length credits
// nothing. A lease that already completed is ignored.
func (q *LeaseQueue) RequeuePartial(l Lease, finished []bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.outstanding[l.Seq]; !ok {
		return
	}
	delete(q.outstanding, l.Seq)
	retry, credited := []span{{l.Lo, l.Hi}}, 0
	if len(finished) == l.Points() {
		retry, credited = missingSpans(l.Lo, finished)
	}
	q.completed += credited
	q.spans = append(retry, q.spans...)
	q.finishLocked()
}

// missingSpans turns a done-mask into the maximal runs of not-done
// points (offset by base into grid coordinates) plus the count of done
// points — shared by the skip-install and partial-requeue paths so
// their boundary arithmetic cannot drift apart.
func missingSpans(base int, done []bool) (spans []span, credited int) {
	lo := -1
	for i := 0; i <= len(done); i++ {
		missing := i < len(done) && !done[i]
		if missing && lo < 0 {
			lo = base + i
		}
		if !missing && lo >= 0 {
			spans = append(spans, span{lo, base + i})
			lo = -1
		}
		if i < len(done) && done[i] {
			credited++
		}
	}
	return spans, credited
}

// Done is closed when every grid point has completed.
func (q *LeaseQueue) Done() <-chan struct{} { return q.done }

// Pending reports the number of grid points waiting in the queue (not
// leased, not completed). The coordinator's fair-share arbiter uses it
// to skip drained jobs without carving a lease. The skip predicate may
// still absorb some of these points at grant time, so the count is an
// upper bound on leasable work.
func (q *LeaseQueue) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, sp := range q.spans {
		n += sp.hi - sp.lo
	}
	return n
}

// Close aborts the dispatch: blocked Next calls return false and no
// further leases are handed out. Used on context cancellation.
func (q *LeaseQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// SeedRate primes a worker's throughput EWMA (points/sec) from history
// observed outside this dispatch — the coordinator carries worker rates
// across jobs so a proven-fast worker gets large leases from its first
// ask of a new sweep.
func (q *LeaseQueue) SeedRate(worker string, pointsPerSec float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if pointsPerSec > 0 {
		q.rate[worker] = pointsPerSec
	}
}

// Rates snapshots the per-worker throughput EWMAs.
func (q *LeaseQueue) Rates() map[string]float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return maps.Clone(q.rate)
}
