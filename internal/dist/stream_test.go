package dist

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
)

// evalCounts tracks per-point evaluation counts for the counting
// sweeps. It is process-global because the scenario registry keeps the
// first registration's point function for the test binary's lifetime
// (including -count repeats).
var evalCounts = struct {
	sync.Mutex
	m map[string]map[int]int
}{m: make(map[string]map[int]int)}

// registerCountingSweep registers an option-independent distributable
// sweep whose point function counts how many times each grid index is
// evaluated — the oracle for "streamed points are never re-run". The
// returned counts function reports evaluations since this call, so
// repeated test runs see only their own.
func registerCountingSweep(name string, points int, delay time.Duration) (counts func(i int) int) {
	evalCounts.Lock()
	if evalCounts.m[name] == nil {
		evalCounts.m[name] = make(map[int]int)
	}
	base := make(map[int]int, len(evalCounts.m[name]))
	for i, n := range evalCounts.m[name] {
		base[i] = n
	}
	evalCounts.Unlock()
	counts = func(i int) int {
		evalCounts.Lock()
		defer evalCounts.Unlock()
		return evalCounts.m[name][i] - base[i]
	}
	if _, ok := core.Lookup(name); ok {
		return counts
	}
	vals := make([]any, points)
	for i := range vals {
		vals[i] = i
	}
	core.MustRegister(core.NewSweep(name, "streaming test sweep",
		[]core.Axis{{Name: "i", Values: vals}},
		func(ctx context.Context, tb *core.Testbed, opts core.Options, pt core.Point) (any, error) {
			evalCounts.Lock()
			evalCounts.m[name][pt.Index]++
			evalCounts.Unlock()
			if delay > 0 {
				time.Sleep(delay)
			}
			return core.Figure1Row{
				Path: fmt.Sprintf("point %d", pt.Index),
				Mbps: float64(pt.Index*3) + 0.5,
			}, nil
		},
		func(opts core.Options, results []any) (core.Report, error) {
			rep := &core.Figure1Report{}
			for _, r := range results {
				rep.Rows = append(rep.Rows, r.(core.Figure1Row))
			}
			return rep, nil
		}).NoShardTestbed().WirePoint(core.Figure1Row{}).PointDeps())
	return counts
}

// Cross-job point reuse: a job resubmitted with different-but-
// irrelevant options is served every point from the content-addressed
// store (cache hits > 0, flagged Cached), byte-identical to a fresh
// single-kernel run.
func TestCrossJobPointReuseServesOverlappingGrids(t *testing.T) {
	registerCountingSweep("dist-test-reuse", 6, 0)
	tc := newCluster(t, Config{LocalShards: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	first, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-reuse", Opts: WireOptions{Frames: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != JobDone || first.PointHits != 0 {
		t.Fatalf("first run: %s, %d hits", first.Status, first.PointHits)
	}
	// Different Frames — irrelevant to the points (PointDeps()) — so the
	// grids overlap completely.
	second, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-reuse", Opts: WireOptions{Frames: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if second.PointHits != 6 || !second.Cached {
		t.Errorf("second run: %d point hits (cached=%v), want all 6 from the store",
			second.PointHits, second.Cached)
	}
	if !bytes.Equal(first.Report, second.Report) {
		t.Errorf("store-served report differs:\n%s\nvs\n%s", second.Report, first.Report)
	}
	wantJSON, _ := localReport(t, "dist-test-reuse", WireOptions{Frames: 2}.Options())
	if !bytes.Equal(second.Report, wantJSON) {
		t.Errorf("store-served report differs from single-kernel run:\n%s\nvs\n%s", second.Report, wantJSON)
	}
	st, err := tc.cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.StoreHits == 0 || st.StorePoints == 0 {
		t.Errorf("status does not reflect the store: %+v", st)
	}
}

// Partial overlap: with a store too small to hold the whole grid, a
// resubmission hits the resident points, re-runs only the evicted ones,
// and still merges byte-identically.
func TestPointStorePartialOverlapAfterEviction(t *testing.T) {
	registerCountingSweep("dist-test-evict", 8, 0)
	tc := newCluster(t, Config{LocalShards: 2, CacheSize: 5})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	first, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-evict"})
	if err != nil {
		t.Fatal(err)
	}
	second, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-evict"})
	if err != nil {
		t.Fatal(err)
	}
	if second.PointHits == 0 || second.PointHits >= 8 {
		t.Errorf("second run hit %d points, want a partial overlap (store capacity 5 < grid 8)",
			second.PointHits)
	}
	if second.Cached {
		t.Error("partially served job flagged fully cached")
	}
	if !bytes.Equal(first.Report, second.Report) {
		t.Errorf("partially store-served report differs:\n%s\nvs\n%s", second.Report, first.Report)
	}
}

// The acceptance bar of the unified execution plane: a NON-sweep
// scenario executes on remote workers — as a one-point plan through the
// same lease queue — and its report is byte-identical to the local
// single-process run.
func TestNonSweepScenarioExecutesOnWorkers(t *testing.T) {
	tc := newCluster(t, Config{LocalShards: -1}) // pure remote: the point must cross the wire
	tc.startWorker(t, NewWorker(""))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := runJob(ctx, tc.cl, JobRequest{Scenario: "table1-model"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != JobDone {
		t.Fatalf("non-sweep job over workers: %s (%s)", st.Status, st.Error)
	}
	if st.Workers != 1 {
		t.Errorf("workers = %d, want the remote worker to have run the point (timings %+v)",
			st.Workers, st.Shards)
	}
	wantJSON, wantText := localReport(t, "table1-model", WireOptions{}.Options())
	if !bytes.Equal(st.Report, wantJSON) {
		t.Errorf("remote non-sweep report differs from local run:\n%s\nvs\n%s", st.Report, wantJSON)
	}
	if st.Text != wantText {
		t.Errorf("remote non-sweep text differs from local run")
	}
	// The wrapped point is stored too: a resubmission is served without
	// any worker involvement.
	again, err := runJob(ctx, tc.cl, JobRequest{Scenario: "table1-model"})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.PointHits != 1 {
		t.Errorf("resubmitted non-sweep job not served from the point store: %+v", again)
	}
	if !bytes.Equal(again.Report, wantJSON) {
		t.Error("store-served non-sweep report differs")
	}
}

// Fault injection for the streaming protocol, driven through the real
// Worker: a worker that streams part of its lease and then dies loses
// only its unstreamed tail — the streamed points are never re-run
// anywhere, every grid point is evaluated exactly once, and the merged
// report stays byte-identical to the single-kernel run.
func TestWorkerDeathAfterStreamingReRunsOnlyTail(t *testing.T) {
	counts := registerCountingSweep("dist-test-stream-kill", 12, 20*time.Millisecond)
	tc := newCluster(t, Config{LocalShards: -1, LeaseTTL: 250 * time.Millisecond})

	var streamedLo, streamedN atomic.Int64
	var died atomic.Bool
	victim := NewWorker("")
	victim.DropAfterPoints = func(l LeaseReply, streamed int) bool {
		// Die once, after streaming two points of a multi-point lease;
		// afterwards the worker serves normally (a restart).
		if streamed >= 2 && l.Hi-l.Lo > 2 && died.CompareAndSwap(false, true) {
			streamedLo.Store(int64(l.Lo))
			streamedN.Store(int64(streamed))
			return true
		}
		return false
	}
	tc.startWorker(t, victim)
	tc.startWorker(t, NewWorker(""))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-stream-kill"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != JobDone {
		t.Fatalf("job did not survive the mid-stream death: %s (%s)", st.Status, st.Error)
	}
	if !died.Load() {
		t.Fatal("fault was never injected; test proved nothing")
	}
	lo, n := int(streamedLo.Load()), int(streamedN.Load())
	for i := 0; i < 12; i++ {
		got := counts(i)
		if got != 1 {
			t.Errorf("point %d evaluated %d times, want exactly once "+
				"(victim streamed [%d,%d) before dying)", i, got, lo, lo+n)
		}
	}
	wantJSON, wantText := localReport(t, "dist-test-stream-kill", WireOptions{}.Options())
	if !bytes.Equal(st.Report, wantJSON) {
		t.Errorf("report after mid-stream death differs:\n%s\nvs\n%s", st.Report, wantJSON)
	}
	if st.Text != wantText {
		t.Errorf("text after mid-stream death differs")
	}
}

// The same fault driven at the protocol level, deterministically: a
// hand-pumped worker streams a prefix of its lease, never completes it,
// and the re-leases after expiry must exclude exactly the streamed
// points. Partial progress is visible in the job status while the dead
// lease is still pending.
func TestExpiredStreamedLeaseReLeasesOnlyUnstreamedPoints(t *testing.T) {
	registerCountingSweep("dist-test-stream-expire", 12, 0)
	s, _ := core.Lookup("dist-test-stream-expire")
	sw := s.(*core.Sweep)
	tc := newCluster(t, Config{LocalShards: -1, LeaseTTL: 300 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	st, err := tc.cl.Submit(ctx, JobRequest{Scenario: "dist-test-stream-expire"})
	if err != nil {
		t.Fatal(err)
	}
	// Pull the first lease and stream its first three points without
	// ever completing it.
	var lease LeaseReply
	deadline := time.Now().Add(10 * time.Second)
	for {
		if postJSONT(t, tc, "/v1/workers/lease", LeaseRequest{WorkerID: "victim"}, &lease) == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease became available")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if lease.Hi-lease.Lo < 4 {
		t.Fatalf("first lease [%d,%d) too small to stream a strict prefix", lease.Lo, lease.Hi)
	}
	streamed := []int{lease.Lo, lease.Lo + 1, lease.Lo + 2}
	up := PointsUpload{JobID: lease.JobID, Seq: lease.Seq,
		Points: evalPoints(t, sw, lease, lease.Lo, lease.Lo+3)}
	var preply PointsReply
	postJSONT(t, tc, "/v1/workers/points", up, &preply)
	if !preply.OK {
		t.Fatal("stream upload for a held lease rejected")
	}
	// Partial progress is visible while the lease is still held.
	mid, err := tc.cl.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.PointsDone != 3 || mid.PointsTotal != 12 {
		t.Errorf("mid-lease progress %d/%d, want 3/12", mid.PointsDone, mid.PointsTotal)
	}
	// Let the lease expire, then drain the rest as a healthy worker;
	// no re-lease may contain a streamed point.
	for time.Now().Before(deadline) {
		var nl LeaseReply
		code := postJSONT(t, tc, "/v1/workers/lease", LeaseRequest{WorkerID: "rescuer"}, &nl)
		if code == http.StatusNoContent {
			// Drained — or the expiry has not happened yet.
			if done, err := tc.cl.Job(ctx, st.ID); err == nil && done.Status == JobDone {
				break
			}
			time.Sleep(20 * time.Millisecond)
			continue
		}
		for _, idx := range streamed {
			if idx >= nl.Lo && idx < nl.Hi {
				t.Fatalf("re-lease [%d,%d) includes streamed point %d", nl.Lo, nl.Hi, idx)
			}
		}
		postJSONT(t, tc, "/v1/workers/result", lastBatch(t, sw, nl), nil)
	}
	final, err := tc.cl.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobDone {
		t.Fatalf("job after streamed-lease expiry: %s (%s)", final.Status, final.Error)
	}
	wantJSON, _ := localReport(t, "dist-test-stream-expire", WireOptions{}.Options())
	if !bytes.Equal(final.Report, wantJSON) {
		t.Errorf("report after streamed-lease expiry differs:\n%s\nvs\n%s", final.Report, wantJSON)
	}
}

// The worker's testbed LRU: leases reuse one testbed per Config across
// jobs, NoShardTestbed sweeps get none, and a scenario-registry change
// (epoch bump) invalidates cached instances.
func TestWorkerTestbedCacheReuse(t *testing.T) {
	w := &Worker{}
	needs := core.NewSweep("tbcache-needs", "",
		[]core.Axis{{Name: "i", Values: []any{1}}},
		func(ctx context.Context, tb *core.Testbed, opts core.Options, pt core.Point) (any, error) {
			return nil, nil
		}, nil)
	none := core.NewSweep("tbcache-none", "", nil, nil, nil).NoShardTestbed()

	opts := core.Options{}
	tb1 := w.leaseTestbed(needs, opts)
	if tb1 == nil {
		t.Fatal("no testbed for a sweep that needs one")
	}
	if tb2 := w.leaseTestbed(needs, opts); tb2 != tb1 {
		t.Error("back-to-back lease with the same Config rebuilt the testbed")
	}
	if tb3 := w.leaseTestbed(needs, core.Options{WAN: atm.OC12}); tb3 == tb1 {
		t.Error("a different Config was handed the cached testbed")
	}
	if tb := w.leaseTestbed(none, opts); tb != nil {
		t.Error("NoShardTestbed sweep was handed a testbed")
	}

	// Registering a scenario bumps the epoch: the cached instance may
	// not have seen the new scenario's shared state, so it is stale.
	if err := core.Register(core.NewScenario("tbcache-epoch-bump", "",
		func(ctx context.Context, tb *core.Testbed, opts core.Options) (core.Report, error) {
			return nil, nil
		})); err != nil {
		t.Fatal(err)
	}
	if tb4 := w.leaseTestbed(needs, opts); tb4 == tb1 {
		t.Error("epoch bump did not invalidate the cached testbed")
	}
}

// The testbed LRU evicts the least-recently-used Config beyond
// TestbedCacheSize, and touching an entry refreshes its recency.
func TestWorkerTestbedCacheEviction(t *testing.T) {
	w := &Worker{TestbedCacheSize: 2}
	needs := core.NewSweep("tbcache-evict", "",
		[]core.Axis{{Name: "i", Values: []any{1}}},
		func(ctx context.Context, tb *core.Testbed, opts core.Options, pt core.Point) (any, error) {
			return nil, nil
		}, nil)

	oc3 := core.Options{WAN: atm.OC3}
	oc12 := core.Options{WAN: atm.OC12}
	oc48 := core.Options{WAN: atm.OC48}

	tbOC3 := w.leaseTestbed(needs, oc3)
	tbOC12 := w.leaseTestbed(needs, oc12)
	w.leaseTestbed(needs, oc3) // refresh OC3: OC12 is now the LRU entry

	if tb := w.leaseTestbed(needs, oc48); tb == nil { // evicts OC12
		t.Fatal("no testbed for the third Config")
	}
	if got := w.leaseTestbed(needs, oc3); got != tbOC3 {
		t.Error("recently touched entry was evicted")
	}
	if got := w.leaseTestbed(needs, oc12); got == tbOC12 {
		t.Error("LRU entry survived eviction")
	}
	if n := len(w.tbCache); n != 2 {
		t.Errorf("cache holds %d entries, want 2", n)
	}
}
