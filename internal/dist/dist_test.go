package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
)

// registerWireSweep registers a fast, deterministic, distributable
// sweep: `points` grid points, each sleeping `delay` of wall time (to
// force leases to spread across workers) and producing a value derived
// from its index. Names must be unique per test; the process-global
// registry keeps them for the test binary's lifetime (re-registration
// under -count>1 is tolerated: the sweep body is deterministic, so the
// first registration serves every repeat).
func registerWireSweep(name string, points int, delay time.Duration) {
	if _, ok := core.Lookup(name); ok {
		return
	}
	vals := make([]any, points)
	for i := range vals {
		vals[i] = i
	}
	core.MustRegister(core.NewSweep(name, "dist test sweep",
		[]core.Axis{{Name: "i", Values: vals}},
		func(ctx context.Context, tb *core.Testbed, opts core.Options, pt core.Point) (any, error) {
			if delay > 0 {
				time.Sleep(delay)
			}
			i := pt.Coord(0).(int)
			return core.Figure1Row{
				Path: fmt.Sprintf("point %d", i),
				Mbps: float64(i*i) + 0.25,
				Note: fmt.Sprintf("frames=%d", opts.Frames),
			}, nil
		},
		func(opts core.Options, results []any) (core.Report, error) {
			rep := &core.Figure1Report{}
			for _, r := range results {
				rep.Rows = append(rep.Rows, r.(core.Figure1Row))
			}
			return rep, nil
		}).NoShardTestbed().WirePoint(core.Figure1Row{}))
}

// testCluster is a loopback coordinator + HTTP server.
type testCluster struct {
	c   *Coordinator
	srv *httptest.Server
	cl  *Client
}

func newCluster(t *testing.T, cfg Config) *testCluster {
	t.Helper()
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 500 * time.Millisecond
	}
	if cfg.Poll == 0 {
		cfg.Poll = 10 * time.Millisecond
	}
	cfg.Logf = t.Logf
	c := New(cfg)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	return &testCluster{
		c: c, srv: srv,
		cl: &Client{Base: srv.URL, Poll: 10 * time.Millisecond},
	}
}

// runJob submits req and waits for the job to finish.
func runJob(ctx context.Context, cl *Client, req JobRequest) (*JobStatus, error) {
	st, err := cl.Submit(ctx, req)
	if err != nil || st.Status == JobDone || st.Status == JobFailed {
		return st, err
	}
	return cl.Wait(ctx, st.ID)
}

// startWorker runs w until the test ends.
func (tc *testCluster) startWorker(t *testing.T, w *Worker) {
	t.Helper()
	w.Coordinator = tc.srv.URL
	w.Logf = t.Logf
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// localReport runs the sweep in-process on a single kernel and returns
// its report bytes and text — the byte-identity reference.
func localReport(t *testing.T, name string, o core.Options) ([]byte, string) {
	t.Helper()
	o.Shards = 1
	rep, err := core.RunWith(context.Background(), name, o)
	if err != nil {
		t.Fatalf("local run of %s: %v", name, err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b, rep.Text()
}

// The acceptance bar of the distributed subsystem: a sweep run through
// a coordinator and two remote workers over loopback HTTP produces a
// report byte-identical to the single-kernel run, with both workers
// participating.
func TestDistributedSweepByteIdenticalWithTwoWorkers(t *testing.T) {
	registerWireSweep("dist-test-identical", 16, 30*time.Millisecond)
	tc := newCluster(t, Config{LocalShards: -1}) // pure remote: every point through a worker
	tc.startWorker(t, NewWorker(""))
	tc.startWorker(t, NewWorker(""))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	opts := WireOptions{Frames: 7}
	st, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-identical", Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != JobDone {
		t.Fatalf("job %s: %s (%s)", st.ID, st.Status, st.Error)
	}
	wantJSON, wantText := localReport(t, "dist-test-identical", opts.Options())
	if !bytes.Equal(st.Report, wantJSON) {
		t.Errorf("distributed report differs from single-kernel run:\n%s\nvs\n%s", st.Report, wantJSON)
	}
	if st.Text != wantText {
		t.Errorf("distributed text differs:\n%s\nvs\n%s", st.Text, wantText)
	}
	if st.Workers < 2 {
		t.Errorf("only %d worker(s) participated, want both (timings: %+v)", st.Workers, st.Shards)
	}
	for _, sh := range st.Shards {
		if sh.Worker == "" {
			t.Errorf("timing without a worker identity: %+v", sh)
		}
	}
}

// A real paper scenario over the wire: figure1-throughput distributed
// across workers must match the local single-kernel run byte for byte
// (the simulation is deterministic and start-time invariant, so where a
// point runs cannot change its value).
func TestFigure1ThroughputDistributedMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("figure1 probes are slow for -short")
	}
	tc := newCluster(t, Config{LocalShards: 1}) // mixed: local shard + remote workers steal from one queue
	tc.startWorker(t, NewWorker(""))
	tc.startWorker(t, NewWorker(""))

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := runJob(ctx, tc.cl, JobRequest{Scenario: "figure1-throughput"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != JobDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	wantJSON, wantText := localReport(t, "figure1-throughput", WireOptions{}.Options())
	if !bytes.Equal(st.Report, wantJSON) {
		t.Errorf("distributed figure1 report differs:\n%s\nvs\n%s", st.Report, wantJSON)
	}
	if st.Text != wantText {
		t.Errorf("distributed figure1 text differs")
	}
}

// Fault injection: a worker killed mid-lease (takes the lease, never
// heartbeats, never uploads) must not lose points — the lease expires
// and the points re-run elsewhere, and the merged report stays
// byte-identical to the single-kernel run.
func TestWorkerKilledMidLeaseReRunsElsewhere(t *testing.T) {
	registerWireSweep("dist-test-kill", 12, 20*time.Millisecond)
	tc := newCluster(t, Config{LocalShards: -1, LeaseTTL: 200 * time.Millisecond})

	var dropped atomic.Int32
	victim := NewWorker("")
	victim.DropAfterPoints = func(l LeaseReply, evaluated int) bool {
		// Die holding the first lease only, before evaluating any of it;
		// afterwards the worker serves normally (a restarted worker with
		// the same sticky ID).
		return evaluated == 0 && dropped.CompareAndSwap(0, 1)
	}
	tc.startWorker(t, victim)
	tc.startWorker(t, NewWorker(""))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-kill"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != JobDone {
		t.Fatalf("job did not survive the killed worker: %s (%s)", st.Status, st.Error)
	}
	if dropped.Load() == 0 {
		t.Fatal("fault was never injected; test proved nothing")
	}
	wantJSON, wantText := localReport(t, "dist-test-kill", WireOptions{}.Options())
	if !bytes.Equal(st.Report, wantJSON) {
		t.Errorf("report after lease expiry differs from single-kernel run:\n%s\nvs\n%s", st.Report, wantJSON)
	}
	if st.Text != wantText {
		t.Errorf("text after lease expiry differs")
	}
}

// evalPoints evaluates grid points [lo, hi) of a hand-pulled lease the
// way a worker does — EvalPoint on one testbed built for the lease —
// and wire-encodes them, for tests that build uploads by hand.
func evalPoints(t *testing.T, sw *core.Sweep, lease LeaseReply, lo, hi int) []PointResult {
	t.Helper()
	opts := lease.Opts.Options()
	tb := sw.NewShardTestbed(opts)
	var prs []PointResult
	for i := lo; i < hi; i++ {
		pr := PointResult{Index: i}
		if v, err := sw.EvalPoint(context.Background(), tb, opts, i); err != nil {
			pr.Error = err.Error()
		} else if pr.Value, err = sw.EncodePoint(v); err != nil {
			t.Fatal(err)
		}
		prs = append(prs, pr)
	}
	return prs
}

// lastBatch is a whole lease evaluated and uploaded in one body — the
// last batch of a worker that sent no mid-lease ones.
func lastBatch(t *testing.T, sw *core.Sweep, lease LeaseReply) PointsUpload {
	t.Helper()
	return PointsUpload{JobID: lease.JobID, Seq: lease.Seq,
		ElapsedNS: int64(time.Millisecond), Points: evalPoints(t, sw, lease, lease.Lo, lease.Hi)}
}

// leasePump manually drives the worker protocol over HTTP: pull leases,
// evaluate, upload — returning every upload it made so tests can replay
// them.
func leasePump(t *testing.T, tc *testCluster, sw *core.Sweep, workerID string) []PointsUpload {
	t.Helper()
	var uploads []PointsUpload
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var lease LeaseReply
		code := postJSONT(t, tc, "/v1/workers/lease", LeaseRequest{WorkerID: workerID}, &lease)
		if code == http.StatusNoContent {
			return uploads
		}
		up := lastBatch(t, sw, lease)
		var reply PointsReply
		postJSONT(t, tc, "/v1/workers/result", up, &reply)
		if !reply.OK {
			t.Fatalf("first upload of lease %d not accepted: %+v", lease.Seq, reply)
		}
		uploads = append(uploads, up)
	}
	t.Fatal("lease pump never drained the queue")
	return nil
}

func postJSONT(t *testing.T, tc *testCluster, path string, in, out any) int {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tc.srv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// Idempotency: re-uploading the last batch of an already-completed
// lease must be acknowledged ok:false and change nothing — neither the
// worker's tally nor the job's report, which stays byte-identical to
// the single-kernel run.
func TestDuplicateResultUploadIgnored(t *testing.T) {
	registerWireSweep("dist-test-dup", 6, 0)
	s, _ := core.Lookup("dist-test-dup")
	sw := s.(*core.Sweep)
	tc := newCluster(t, Config{LocalShards: -1})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := tc.cl.Submit(ctx, JobRequest{Scenario: "dist-test-dup"})
	if err != nil {
		t.Fatal(err)
	}
	// Drain the grid by hand, then replay every upload verbatim.
	waitRunning(t, tc.cl, st.ID)
	uploads := leasePump(t, tc, sw, "pump-worker")
	if len(uploads) == 0 {
		t.Fatal("pump made no uploads")
	}
	tally := func() int {
		t.Helper()
		reply, err := tc.cl.Status(ctx)
		if err != nil || len(reply.Workers) != 1 {
			t.Fatalf("status: %v / %+v", err, reply)
		}
		return reply.Workers[0].Points
	}
	before := tally()
	if before != 6 {
		t.Errorf("pump worker's tally is %d after the first uploads, want 6", before)
	}
	for _, up := range uploads {
		reply := PointsReply{OK: true}
		if code := postJSONT(t, tc, "/v1/workers/result", up, &reply); code != http.StatusOK || reply.OK {
			t.Errorf("replayed last batch of lease %d: status %d, ok=%v; want 200 ok:false", up.Seq, code, reply.OK)
		}
	}
	if after := tally(); after != before {
		t.Errorf("replayed last batches moved the worker's tally %d -> %d", before, after)
	}
	final, err := tc.cl.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobDone {
		t.Fatalf("job: %s (%s)", final.Status, final.Error)
	}
	wantJSON, _ := localReport(t, "dist-test-dup", WireOptions{}.Options())
	if !bytes.Equal(final.Report, wantJSON) {
		t.Errorf("report after duplicate uploads differs:\n%s\nvs\n%s", final.Report, wantJSON)
	}
}

// A malformed last batch — here a point index outside its lease — is
// a 400 that costs nothing but time: the lease's points go back to the
// queue and are re-run by another worker, the report stays
// byte-identical, and the rejected body counts toward the uploading
// worker's tally neither in /v1/status nor in the journaled
// WorkerRecord.
func TestRejectedResultUploadRequeuesAndLeavesTallyUnchanged(t *testing.T) {
	registerWireSweep("dist-test-reject", 6, 0)
	s, _ := core.Lookup("dist-test-reject")
	sw := s.(*core.Sweep)
	mem := persist.NewMem()
	tc := newCluster(t, Config{LocalShards: -1, Store: mem})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := tc.cl.Submit(ctx, JobRequest{Scenario: "dist-test-reject"})
	if err != nil {
		t.Fatal(err)
	}
	var lease LeaseReply
	for postJSONT(t, tc, "/v1/workers/lease", LeaseRequest{WorkerID: "bad-worker"}, &lease) != http.StatusOK {
		if ctx.Err() != nil {
			t.Fatal("no lease became available")
		}
		time.Sleep(5 * time.Millisecond)
	}
	bad := lastBatch(t, sw, lease)
	// The first point is the bad one, so nothing of the upload is
	// taken in before the rejection.
	bad.Points[0].Index = lease.Hi
	if code := postJSONT(t, tc, "/v1/workers/result", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("upload with a point outside its lease: status %d, want 400", code)
	}
	tally := func(id string) (status, journaled int) {
		t.Helper()
		reply, err := tc.cl.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range reply.Workers {
			if w.ID == id {
				status = w.Points
			}
		}
		for _, w := range mem.Load().Workers {
			if w.ID == id {
				journaled = w.Points
			}
		}
		return status, journaled
	}
	if status, journaled := tally("bad-worker"); status != 0 || journaled != 0 {
		t.Errorf("rejected upload counted: /v1/status points=%d, journaled points=%d, want 0 and 0", status, journaled)
	}

	// The rejected lease's points are back in the queue: a healthy
	// worker is handed the whole grid.
	rerun := 0
	for _, up := range leasePump(t, tc, sw, "good-worker") {
		rerun += len(up.Points)
	}
	if rerun != 6 {
		t.Errorf("healthy worker ran %d point(s), want all 6 (the rejected lease's included)", rerun)
	}
	final, err := tc.cl.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobDone {
		t.Fatalf("job: %s (%s)", final.Status, final.Error)
	}
	wantJSON, _ := localReport(t, "dist-test-reject", WireOptions{}.Options())
	if !bytes.Equal(final.Report, wantJSON) {
		t.Errorf("report after a rejected upload differs:\n%s\nvs\n%s", final.Report, wantJSON)
	}
	if status, journaled := tally("bad-worker"); status != 0 || journaled != 0 {
		t.Errorf("after the job: bad worker's tally is %d in /v1/status, %d journaled, want 0 and 0", status, journaled)
	}
	if status, journaled := tally("good-worker"); status != 6 || journaled != 6 {
		t.Errorf("good worker's tally is %d in /v1/status, %d journaled, want 6 and 6", status, journaled)
	}
}

// One-point jobs are where a lease's completion and its job's merge sit
// closest together: the upload that completes the only lease also
// closes the queue's Done, and the job goroutine merges the moment it
// does. Every job must finish done — a "point never evaluated (dispatch
// abandoned)" failure means a result became visible only after its
// lease had completed.
func TestOnePointJobsNeverAbandoned(t *testing.T) {
	registerWireSweep("dist-test-onepoint", 1, 0)
	tc := newCluster(t, Config{LocalShards: -1, Poll: 2 * time.Millisecond})
	tc.startWorker(t, NewWorker(""))
	tc.startWorker(t, NewWorker(""))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	const jobs, clients = 2000, 4
	cl := &Client{Base: tc.srv.URL, Poll: time.Millisecond}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := c; n < jobs; n += clients {
				// A fresh Frames per job: every one is a store miss.
				st, err := runJob(ctx, cl, JobRequest{Scenario: "dist-test-onepoint", Opts: WireOptions{Frames: n + 1}})
				if err != nil {
					t.Errorf("job %d: %v", n, err)
					return
				}
				if st.Status != JobDone {
					t.Errorf("job %d (%s): %s (%s)", n, st.ID, st.Status, st.Error)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// The content-addressed point store: an identical second submission is
// served without re-running the simulation (every point hits; only the
// merge recomputes), byte-identical, flagged Cached.
func TestPointStoreServesRepeatJobs(t *testing.T) {
	registerWireSweep("dist-test-cache", 4, 0)
	tc := newCluster(t, Config{LocalShards: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	first, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-cache", Opts: WireOptions{Frames: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != JobDone || first.Cached {
		t.Fatalf("first run: status %s cached %v", first.Status, first.Cached)
	}
	second, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-cache", Opts: WireOptions{Frames: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("identical resubmission was not served from the cache")
	}
	if !bytes.Equal(first.Report, second.Report) {
		t.Error("cached report differs from the original")
	}
	// Different options miss the cache.
	third, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-cache", Opts: WireOptions{Frames: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Error("different options served a stale cached result")
	}
}

// A job whose every point is already in the store has nothing to
// lease, so the coordinator starts no local shard for it — no shard
// testbed is built — and its timings name no local participant; the
// report is byte-identical to the cold run's.
func TestAllHitJobStartsNoLocalShard(t *testing.T) {
	registerWireSweep("dist-test-allhit", 4, 0)
	tc := newCluster(t, Config{LocalShards: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cold, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-allhit"})
	if err != nil || cold.Status != JobDone || len(cold.Shards) != 1 || cold.Shards[0].Worker != "local-0" {
		t.Fatalf("cold run: %v / %+v, want done on the one local shard", err, cold)
	}
	hit, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-allhit"})
	if err != nil || hit.Status != JobDone || !hit.Cached {
		t.Fatalf("resubmission: %v / %+v, want done and cached", err, hit)
	}
	if len(hit.Shards) != 0 || hit.Workers != 0 {
		t.Errorf("all-hit job reports %d participant(s) in timings %+v, want none", hit.Workers, hit.Shards)
	}
	wantJSON, _ := localReport(t, "dist-test-allhit", WireOptions{}.Options())
	if !bytes.Equal(hit.Report, cold.Report) || !bytes.Equal(hit.Report, wantJSON) {
		t.Errorf("all-hit report differs from the cold run or the single-kernel run:\n%s\nvs\n%s", hit.Report, wantJSON)
	}
}

// Concurrent identical submissions share one in-flight job instead of
// running the simulation twice.
func TestConcurrentIdenticalSubmissionsShareOneJob(t *testing.T) {
	registerWireSweep("dist-test-share", 8, 20*time.Millisecond)
	tc := newCluster(t, Config{LocalShards: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const clients = 6
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := tc.cl.Submit(ctx, JobRequest{Scenario: "dist-test-share"})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	distinct := map[string]bool{}
	for _, id := range ids {
		if id != "" {
			distinct[id] = true
		}
	}
	if len(distinct) != 1 {
		t.Errorf("%d identical submissions produced %d jobs (%v), want 1", clients, len(distinct), ids)
	}
	for id := range distinct {
		if st, err := tc.cl.Wait(ctx, id); err != nil || st.Status != JobDone {
			t.Errorf("shared job: %v / %+v", err, st)
		}
	}
}

// Finished jobs are pruned past the retention bound, so a long-running
// coordinator's memory does not grow with every submission (cache hits
// synthesize jobs too); in-flight jobs are never pruned.
func TestFinishedJobsPrunedPastRetention(t *testing.T) {
	registerWireSweep("dist-test-prune", 2, 0)
	cfg := Config{LocalShards: 1, RetainJobs: 2}
	tc := newCluster(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var ids []string
	for frames := 1; frames <= 4; frames++ {
		st, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-prune", Opts: WireOptions{Frames: frames}})
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != JobDone {
			t.Fatalf("job %d: %s (%s)", frames, st.Status, st.Error)
		}
		ids = append(ids, st.ID)
	}
	// Newest finished jobs stay pollable; the oldest are gone.
	if _, err := tc.cl.Job(ctx, ids[len(ids)-1]); err != nil {
		t.Errorf("newest finished job pruned: %v", err)
	}
	if _, err := tc.cl.Job(ctx, ids[0]); err == nil {
		t.Errorf("oldest finished job still pollable past RetainJobs=2 (%d submissions)", len(ids))
	}
}

// A non-sweep scenario submitted to a workerless coordinator runs as a
// one-point plan on the local shard and still comes back with report +
// text (the remote-worker path is TestNonSweepScenarioExecutesOnWorkers).
func TestNonSweepScenarioRunsOnCoordinator(t *testing.T) {
	tc := newCluster(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := runJob(ctx, tc.cl, JobRequest{Scenario: "table1-model"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != JobDone || len(st.Report) == 0 || st.Text == "" {
		t.Fatalf("table1-model over the wire: %+v", st)
	}
}

// Submitting an unregistered scenario fails fast with 404.
func TestUnknownScenarioRejected(t *testing.T) {
	tc := newCluster(t, Config{})
	_, err := tc.cl.Submit(context.Background(), JobRequest{Scenario: "no-such-scenario"})
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// The status endpoint reports registered workers (the CI smoke job uses
// it as its readiness gate).
func TestStatusReportsWorkers(t *testing.T) {
	tc := newCluster(t, Config{})
	tc.startWorker(t, NewWorker(""))
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := tc.cl.Status(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Workers) == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never appeared in status: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
