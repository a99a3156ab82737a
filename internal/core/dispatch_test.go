package core

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// Every grid point must be leased exactly once when workers drain the
// queue concurrently, whatever the interleaving.
func TestWorkStealingLeasesCoverGridExactlyOnce(t *testing.T) {
	const points, workers = 97, 5
	d := NewWorkStealingDispatcher(points, workers)
	var mu sync.Mutex
	seen := make([]int, points)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			for {
				l, ok := d.Next(name)
				if !ok {
					return
				}
				mu.Lock()
				for i := l.Lo; i < l.Hi; i++ {
					seen[i]++
				}
				mu.Unlock()
				d.Complete(l, time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	for i, n := range seen {
		if n != 1 {
			t.Errorf("point %d leased %d times, want exactly once", i, n)
		}
	}
	select {
	case <-d.Done():
	default:
		t.Error("Done not closed after all points completed")
	}
}

// A requeued lease's points must come back out of the queue (the
// dead-worker path), and completing the stale lease afterwards must be
// ignored.
func TestRequeueRevivesPointsAndStaleCompleteIsIgnored(t *testing.T) {
	d := NewWorkStealingDispatcher(4, 1)
	l1, ok := d.TryNext("w1")
	if !ok {
		t.Fatal("no first lease")
	}
	d.RequeuePartial(l1, nil)
	// The same points come back under a new lease seq.
	l2, ok := d.TryNext("w2")
	if !ok {
		t.Fatal("requeued points not available")
	}
	if l2.Lo != l1.Lo {
		t.Errorf("requeued lease starts at %d, want the retried point %d first", l2.Lo, l1.Lo)
	}
	if l2.Seq == l1.Seq {
		t.Error("requeued lease reused the stale seq")
	}
	// The dead worker's late upload: completing the stale lease must
	// not count points twice.
	if d.Complete(l1, time.Millisecond) {
		t.Error("stale lease completed; duplicate uploads would double-count")
	}
	if !d.Complete(l2, time.Millisecond) {
		t.Error("live lease refused")
	}
}

// A worker with a faster throughput EWMA must get a larger lease than a
// slower one — the WANify-style steering.
func TestLeaseSizeFollowsThroughputEWMA(t *testing.T) {
	d := NewWorkStealingDispatcher(64, 2)
	d.SeedRate("fast", 1000)
	d.SeedRate("slow", 10)
	lf, ok := d.TryNext("fast")
	if !ok {
		t.Fatal("no lease for fast worker")
	}
	ls, ok := d.TryNext("slow")
	if !ok {
		t.Fatal("no lease for slow worker")
	}
	if lf.Points() <= ls.Points() {
		t.Errorf("fast worker leased %d points, slow %d; EWMA steering should favor the fast one",
			lf.Points(), ls.Points())
	}
}

// The lease floor: no completion, or completions with no overhead,
// keep the point-count sizes; once a completion shows an overhead of
// many points' evaluation, no lease is carved smaller than that — up
// to all that is pending in the span, never more.
func TestLeaseFloorCoversOverhead(t *testing.T) {
	// sizes drains q, completing each lease at perPoint a point plus extra.
	sizes := func(q *LeaseQueue, perPoint, extra time.Duration) []int {
		var out []int
		for l, ok := q.TryNext("w"); ok; l, ok = q.TryNext("w") {
			out = append(out, l.Points())
			eval := time.Duration(l.Points()) * perPoint
			q.complete(l, eval, eval+extra)
		}
		return out
	}
	for _, tc := range []struct {
		name            string
		perPoint, extra time.Duration // each completion's evaluation per point, and its overhead
		want            []int
	}{
		// 64 points over 2 workers: the first lease, before any
		// completion, is always a quarter; then half the remainder
		// across the two.
		{"no overhead keeps the point-count sizes", time.Microsecond, 0, []int{16, 12, 9, 7, 5, 4, 3, 2, 2, 1, 1, 1, 1}},
		{"cheap points take the rest in one lease", time.Microsecond, 10 * time.Millisecond, []int{16, 48}},
		{"the floor sits between base and the rest", time.Millisecond, 30 * time.Millisecond, []int{16, 30, 18}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := sizes(NewWorkStealingDispatcher(64, 2), tc.perPoint, tc.extra)
			if !slices.Equal(got, tc.want) {
				t.Errorf("lease sizes %v, want %v", got, tc.want)
			}
		})
	}
	// A requeued lease splits the pending work into two spans: the
	// floor never carves past the span it starts in.
	q := NewWorkStealingDispatcher(64, 2)
	l1, _ := q.TryNext("w")
	l2, _ := q.TryNext("w")
	q.complete(l2, time.Microsecond, time.Second)
	finished := make([]bool, l1.Points())
	for k := 4; k < len(finished); k++ {
		finished[k] = true
	}
	q.RequeuePartial(l1, finished)
	if l, _ := q.TryNext("w"); l.Lo != 0 || l.Hi != 4 {
		t.Errorf("after a partial requeue the next lease is [%d,%d), want exactly the requeued run [0,4)", l.Lo, l.Hi)
	}
}

// Close must unblock workers parked in Next (the cancellation path).
func TestCloseUnblocksNext(t *testing.T) {
	d := NewWorkStealingDispatcher(1, 2)
	l, _ := d.TryNext("holder") // drain the only point, don't complete it
	_ = l
	unblocked := make(chan bool, 1)
	go func() {
		_, ok := d.Next("waiter")
		unblocked <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	d.Close()
	select {
	case ok := <-unblocked:
		if ok {
			t.Error("Next returned a lease from a closed dispatcher")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next still blocked after Close")
	}
}

// Rates must survive a run so the coordinator can seed the next job's
// dispatcher with what it learned.
func TestRatesSnapshotAfterCompletes(t *testing.T) {
	d := NewWorkStealingDispatcher(8, 2)
	for {
		l, ok := d.TryNext("w")
		if !ok {
			break
		}
		d.Complete(l, 100*time.Millisecond)
	}
	rates := d.Rates()
	if rates["w"] <= 0 {
		t.Errorf("worker rate = %v, want a positive points/sec EWMA", rates["w"])
	}
}

func TestPendingTracksQueueNotLeases(t *testing.T) {
	d := NewWorkStealingDispatcher(10, 2)
	if got := d.Pending(); got != 10 {
		t.Fatalf("fresh queue Pending = %d, want 10", got)
	}
	l, _ := d.TryNext("w")
	if got := d.Pending(); got != 10-l.Points() {
		t.Fatalf("Pending after lease = %d, want %d (leased points are not pending)", got, 10-l.Points())
	}
	d.RequeuePartial(l, nil)
	if got := d.Pending(); got != 10 {
		t.Fatalf("Pending after requeue = %d, want 10", got)
	}
}

// The queue with a skip predicate installed — the coordinator's store
// reuse. known are the points the predicate knows when it is installed,
// late the ones it learns right after (the shape of results landing in
// the point store mid-job, picked up at lease grant). Every row also
// checks that the rest of the queue's methods behave the same with a
// predicate in place.
func TestDispatchQueue(t *testing.T) {
	// drain leases and completes until nothing is pending, returning
	// how often each point was handed to a worker and the leases in
	// grant order.
	drain := func(q *LeaseQueue, points int) (seen []int, leases []Lease) {
		seen = make([]int, points)
		for l, ok := q.TryNext("w"); ok; l, ok = q.TryNext("w") {
			for i := l.Lo; i < l.Hi; i++ {
				seen[i]++
			}
			leases = append(leases, l)
			q.Complete(l, time.Millisecond)
		}
		return seen, leases
	}
	isDone := func(q *LeaseQueue) bool {
		select {
		case <-q.Done():
			return true
		default:
			return false
		}
	}
	all := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	tests := []struct {
		name            string
		points, workers int
		known, late     []int
		check           func(t *testing.T, q *LeaseQueue, skipped map[int]int)
	}{
		{"install-all-done", 3, 2, all(3), nil, func(t *testing.T, q *LeaseQueue, _ map[int]int) {
			// Born complete, without any worker asking.
			if !isDone(q) {
				t.Error("fully known grid is not done at install")
			}
			if l, ok := q.TryNext("w"); ok {
				t.Errorf("fully known grid handed out [%d,%d)", l.Lo, l.Hi)
			}
		}},
		{"install-missing-runs", 8, 1, []int{0, 3, 5, 6}, nil, func(t *testing.T, q *LeaseQueue, _ map[int]int) {
			if got := q.Pending(); got != 4 {
				t.Errorf("Pending = %d, want the 4 missing points", got)
			}
			seen, leases := drain(q, 8)
			for i, want := range []int{0, 1, 1, 0, 1, 0, 0, 1} {
				if seen[i] != want {
					t.Errorf("point %d leased %d time(s), want %d", i, seen[i], want)
				}
			}
			for k := 1; k < len(leases); k++ {
				if leases[k].Lo < leases[k-1].Hi {
					t.Errorf("leases out of grid order: %v", leases)
				}
			}
			if !isDone(q) {
				t.Error("not done after the missing points completed")
			}
		}},
		{"grant-partial", 10, 1, nil, []int{2, 3, 7}, func(t *testing.T, q *LeaseQueue, skipped map[int]int) {
			seen, _ := drain(q, 10)
			for i := range seen {
				want := 1
				if i == 2 || i == 3 || i == 7 {
					want = 0
				}
				if seen[i] != want {
					t.Errorf("point %d leased %d time(s), want %d", i, seen[i], want)
				}
			}
			for _, i := range []int{2, 3, 7} {
				if skipped[i] != 1 {
					t.Errorf("point %d skipped %d time(s), want exactly once", i, skipped[i])
				}
			}
			if !isDone(q) {
				t.Error("not done after the re-carved runs completed")
			}
		}},
		{"grant-absorbed", 6, 2, nil, all(6), func(t *testing.T, q *LeaseQueue, _ map[int]int) {
			// Until a worker asks, Pending is an upper bound: the
			// predicate has not seen the late points yet.
			if got := q.Pending(); got != 6 {
				t.Errorf("Pending before the first ask = %d, want 6", got)
			}
			if l, ok := q.TryNext("w"); ok {
				t.Errorf("fully absorbed grid still leased [%d,%d)", l.Lo, l.Hi)
			}
			if got := q.Pending(); got != 0 {
				t.Errorf("Pending after absorption = %d, want 0", got)
			}
			if !isDone(q) {
				t.Error("fully absorbed grid did not drain to Done")
			}
		}},
		{"requeue-partial", 8, 1, nil, nil, func(t *testing.T, q *LeaseQueue, _ map[int]int) {
			l, _ := q.TryNext("victim")
			if l.Points() < 2 {
				t.Fatalf("first lease too small for the test: [%d,%d)", l.Lo, l.Hi)
			}
			finished := make([]bool, l.Points())
			finished[0] = true // streamed before death
			q.RequeuePartial(l, finished)
			seen, leases := drain(q, 8)
			if leases[0].Lo != l.Lo+1 {
				t.Errorf("re-lease starts at %d, want %d (the first unfinished point)", leases[0].Lo, l.Lo+1)
			}
			if seen[l.Lo] != 0 {
				t.Errorf("streamed point %d re-leased", l.Lo)
			}
			if !isDone(q) {
				t.Error("streamed point not credited: queue never drained")
			}
		}},
		{"requeue-front", 8, 2, nil, nil, func(t *testing.T, q *LeaseQueue, _ map[int]int) {
			l1, _ := q.TryNext("dead")
			q.TryNext("other")
			q.RequeuePartial(l1, nil)
			l3, ok := q.TryNext("rescuer")
			if !ok || l3.Lo != l1.Lo || l3.Seq == l1.Seq {
				t.Errorf("after requeue got lease %+v (ok=%v), want the retried points %d.. first under a new seq", l3, ok, l1.Lo)
			}
		}},
		{"complete-duplicate", 4, 1, nil, nil, func(t *testing.T, q *LeaseQueue, _ map[int]int) {
			l, _ := q.TryNext("w")
			if !q.Complete(l, time.Millisecond) {
				t.Error("first completion reported not-outstanding")
			}
			if q.Complete(l, time.Millisecond) {
				t.Error("duplicate completion reported outstanding")
			}
			if l.Points() < 4 && isDone(q) {
				t.Error("duplicate completion counted its points twice")
			}
		}},
		{"rates", 64, 2, nil, nil, func(t *testing.T, q *LeaseQueue, _ map[int]int) {
			q.SeedRate("fast", 1000)
			q.SeedRate("slow", 10)
			if r := q.Rates(); r["fast"] != 1000 || r["slow"] != 10 {
				t.Errorf("seeded rates did not round-trip: %v", r)
			}
			lf, _ := q.TryNext("fast")
			ls, _ := q.TryNext("slow")
			if lf.Points() <= ls.Points() {
				t.Errorf("fast worker leased %d points, slow %d; the seeded EWMA should favor the fast one",
					lf.Points(), ls.Points())
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			q := NewWorkStealingDispatcher(tc.points, tc.workers)
			known := make(map[int]bool)
			for _, i := range tc.known {
				known[i] = true
			}
			skipped := make(map[int]int)
			installed := false
			q.SetSkip(func(lo, hi int) []bool {
				mask := make([]bool, hi-lo)
				for i := lo; i < hi; i++ {
					mask[i-lo] = known[i]
					if installed && known[i] {
						skipped[i]++
					}
				}
				return mask
			})
			installed = true
			for _, i := range tc.late {
				known[i] = true
			}
			tc.check(t, q, skipped)
		})
	}
}
