package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
)

// This file tests the durable-coordinator subsystem: a coordinator's
// state (finished points, job lifecycle, worker stats) journaled to a
// persist.Store survives a restart, interrupted jobs resume re-running
// only what was never streamed, and the resumed reports stay
// byte-identical to uninterrupted runs. A shared persist.Mem plays the
// role of the surviving disk: handing the same Mem to a second
// Coordinator is exactly the recovery a persist.Disk performs from its
// snapshot+log (TestMemAndDiskAgreeOnState pins that equivalence; the
// disk end-to-end path is TestDiskBackedCoordinatorSurvivesRestart and
// the CI kill-and-restart smoke).

// A coordinator restarted on the same store serves finished points from
// the recovered cache (resubmission hits every point), keeps finished
// job reports pollable under their old IDs, and continues job numbering
// instead of reissuing IDs.
func TestCoordinatorRestartServesRecoveredPoints(t *testing.T) {
	registerCountingSweep("dist-test-recover", 6, 0)
	mem := persist.NewMem()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	a := newCluster(t, Config{LocalShards: 2, Store: mem})
	first, err := a.cl.Run(ctx, JobRequest{Scenario: "dist-test-recover", Opts: WireOptions{Frames: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != JobDone {
		t.Fatalf("first run: %s (%s)", first.Status, first.Error)
	}
	a.c.Close() // clean shutdown; the journal already has every point

	b := newCluster(t, Config{LocalShards: 2, Store: mem})
	// The finished job is pollable on the restarted coordinator, report
	// intact.
	old, err := b.cl.Job(ctx, first.ID)
	if err != nil {
		t.Fatalf("finished job lost across restart: %v", err)
	}
	if old.Status != JobDone || !bytes.Equal(old.Report, first.Report) || old.Text != first.Text {
		t.Errorf("recovered job differs: %+v", old)
	}
	// A resubmission (different-but-irrelevant options, so it is a new
	// job) is served entirely from the recovered store.
	second, err := b.cl.Run(ctx, JobRequest{Scenario: "dist-test-recover", Opts: WireOptions{Frames: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if second.PointHits != 6 || !second.Cached {
		t.Errorf("resubmission after restart: %d point hits (cached=%v), want all 6 from the recovered store",
			second.PointHits, second.Cached)
	}
	if !bytes.Equal(second.Report, first.Report) {
		t.Errorf("recovered-store report differs:\n%s\nvs\n%s", second.Report, first.Report)
	}
	if second.ID == first.ID {
		t.Error("restart reissued a live job ID")
	}
}

// The centerpiece fault injection: the coordinator is killed mid-sweep
// after a worker streamed part of a lease. Restarted on the same store,
// the interrupted job resumes under its old ID, re-runs ONLY the
// never-streamed points (the streamed ones are recovered from the
// store), and its final report is byte-identical to an uninterrupted
// single-kernel run.
func TestCoordinatorKilledMidSweepResumesOnlyUnstreamedTail(t *testing.T) {
	counts := registerCountingSweep("dist-test-coord-kill", 12, 0)
	s, _ := core.Lookup("dist-test-coord-kill")
	sw := s.(*core.Sweep)
	mem := persist.NewMem()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	a := newCluster(t, Config{LocalShards: -1, Store: mem})
	st, err := a.cl.Submit(ctx, JobRequest{Scenario: "dist-test-coord-kill"})
	if err != nil {
		t.Fatal(err)
	}
	// Pull a lease by hand and stream a strict prefix of it, never
	// completing the lease.
	var lease LeaseReply
	deadline := time.Now().Add(10 * time.Second)
	for {
		if postJSONT(t, a, "/v1/workers/lease", LeaseRequest{WorkerID: "doomed"}, &lease) == http.StatusOK {
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
	up := PointsUpload{JobID: lease.JobID, Seq: lease.Seq,
		Points: evalPoints(t, sw, lease, lease.Lo, lease.Lo+3)}
	var preply PointsReply
	postJSONT(t, a, "/v1/workers/points", up, &preply)
	if !preply.OK {
		t.Fatal("stream upload rejected")
	}
	// Kill the coordinator mid-job. Close cancels the run and waits for
	// the execute goroutine, which journals the interrupted job as
	// queued.
	a.c.Close()

	// Restart on the same store: the job must come back under its old
	// ID and resume on its own.
	b := newCluster(t, Config{LocalShards: -1, Store: mem})
	b.startWorker(t, NewWorker(""))
	final, err := b.cl.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("interrupted job lost across restart: %v", err)
	}
	if final.Status != JobDone {
		t.Fatalf("resumed job: %s (%s)", final.Status, final.Error)
	}
	if final.PointHits != 3 {
		t.Errorf("resumed job hit %d stored point(s), want exactly the 3 streamed before the kill", final.PointHits)
	}
	for i := 0; i < 12; i++ {
		want := 1
		if got := counts(i); got != want {
			t.Errorf("point %d evaluated %d time(s) across the kill+restart, want exactly once", i, got)
		}
	}
	wantJSON, wantText := localReport(t, "dist-test-coord-kill", WireOptions{}.Options())
	if !bytes.Equal(final.Report, wantJSON) {
		t.Errorf("resumed report differs from uninterrupted run:\n%s\nvs\n%s", final.Report, wantJSON)
	}
	if final.Text != wantText {
		t.Errorf("resumed text differs from uninterrupted run")
	}
}

// The disk store end to end: a coordinator journaling to a persist.Disk
// is killed (store closed without the coordinator finishing cleanly is
// covered by the WAL tests; here the full clean path), reopened, and
// the new coordinator serves the recovered points.
func TestDiskBackedCoordinatorSurvivesRestart(t *testing.T) {
	registerCountingSweep("dist-test-disk", 4, 0)
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	d1, err := persist.Open(dir, persist.DiskOptions{SnapshotEvery: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	a := newCluster(t, Config{LocalShards: 2, Store: d1})
	first, err := a.cl.Run(ctx, JobRequest{Scenario: "dist-test-disk", Opts: WireOptions{Frames: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != JobDone {
		t.Fatalf("first run: %s (%s)", first.Status, first.Error)
	}
	a.c.Close()
	if err := d1.Close(); err != nil { // gtwd's shutdown order: coordinator, then store
		t.Fatal(err)
	}

	d2, err := persist.Open(dir, persist.DiskOptions{SnapshotEvery: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Close() })
	b := newCluster(t, Config{LocalShards: 2, Store: d2})
	second, err := b.cl.Run(ctx, JobRequest{Scenario: "dist-test-disk", Opts: WireOptions{Frames: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if second.PointHits != 4 || !second.Cached {
		t.Errorf("disk-recovered resubmission: %d hits (cached=%v), want all 4", second.PointHits, second.Cached)
	}
	if !bytes.Equal(second.Report, first.Report) {
		t.Errorf("disk-recovered report differs:\n%s\nvs\n%s", second.Report, first.Report)
	}
}

// Worker identity survives the coordinator: a restarted coordinator
// remembers a sticky worker's points tally and throughput EWMA, so a
// reconnecting worker resumes with its earned lease sizing.
func TestWorkerStatsRecoveredAcrossRestart(t *testing.T) {
	registerWireSweep("dist-test-wstats", 8, 5*time.Millisecond)
	mem := persist.NewMem()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	a := newCluster(t, Config{LocalShards: -1, Store: mem})
	w := NewWorker("")
	a.startWorker(t, w)
	if st, err := a.cl.Run(ctx, JobRequest{Scenario: "dist-test-wstats"}); err != nil || st.Status != JobDone {
		t.Fatalf("seed job: %v / %+v", err, st)
	}
	a.c.Close()

	b := newCluster(t, Config{LocalShards: -1, Store: mem})
	st, err := b.cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var found *WorkerStatus
	for i := range st.Workers {
		if st.Workers[i].ID == w.ID {
			found = &st.Workers[i]
		}
	}
	if found == nil {
		t.Fatalf("sticky worker %s lost across restart: %+v", w.ID, st.Workers)
	}
	if found.Points == 0 {
		t.Errorf("recovered worker lost its points tally: %+v", found)
	}
	if found.RatePPS <= 0 {
		t.Errorf("recovered worker lost its throughput EWMA: %+v", found)
	}
}

// Mid-job store pickup, deterministically: points that land in the
// store AFTER a job's submit-time prefill are claimed at lease-grant
// time — granted leases exclude them, they count as hits, and the
// report still assembles byte-identically.
func TestLeaseGrantPicksUpPointsStoredMidJob(t *testing.T) {
	counts := registerCountingSweep("dist-test-pickup", 12, 0)
	s, _ := core.Lookup("dist-test-pickup")
	sw := s.(*core.Sweep)
	tc := newCluster(t, Config{LocalShards: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	st, err := tc.cl.Submit(ctx, JobRequest{Scenario: "dist-test-pickup", Opts: WireOptions{Frames: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the run exists (submit-time prefill done — with an
	// empty store it prefills nothing).
	deadline := time.Now().Add(10 * time.Second)
	for {
		mid, err := tc.cl.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if mid.PointsTotal == 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started dispatching")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Now simulate a concurrent overlapping job finishing points 2, 3
	// and 7: their wire bytes land in the store mid-job.
	pts := sw.Points()
	stored := []int{2, 3, 7}
	opts := WireOptions{Frames: 1}.Options()
	for _, i := range stored {
		v, err := sw.EvalPoint(context.Background(), nil, opts, i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sw.EncodePoint(v)
		if err != nil {
			t.Fatal(err)
		}
		tc.c.store.put(sw.PointKey(opts, pts[i]), b)
	}
	// Drain by hand: no granted lease may include a stored point.
	uploads := leasePump(t, tc, sw, "pump")
	for _, up := range uploads {
		for _, p := range up.Points {
			for _, i := range stored {
				if p.Index == i {
					t.Errorf("lease %d included point %d, which was in the store at grant time", up.Seq, i)
				}
			}
		}
	}
	final, err := tc.cl.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobDone {
		t.Fatalf("job: %s (%s)", final.Status, final.Error)
	}
	if final.PointHits != len(stored) {
		t.Errorf("point hits = %d, want %d grant-time pickups", final.PointHits, len(stored))
	}
	// The stored points were evaluated once (by this test's hand) plus
	// never by the pump; every other point exactly once by the pump.
	for i := 0; i < 12; i++ {
		if got := counts(i); got != 1 {
			t.Errorf("point %d evaluated %d time(s), want 1", i, got)
		}
	}
	wantJSON, _ := localReport(t, "dist-test-pickup", WireOptions{Frames: 1}.Options())
	if !bytes.Equal(final.Report, wantJSON) {
		t.Errorf("report with mid-job pickup differs:\n%s\nvs\n%s", final.Report, wantJSON)
	}
}

// Two overlapping jobs racing: same option-independent sweep submitted
// under different (irrelevant) options, running concurrently across
// workers. Both must complete byte-identically — streamed points of one
// job flowing into the other through the store mid-run must never
// corrupt either report.
func TestOverlappingJobsRacingShareTheStore(t *testing.T) {
	registerCountingSweep("dist-test-race", 10, 10*time.Millisecond)
	tc := newCluster(t, Config{LocalShards: -1, MaxJobs: 2})
	tc.startWorker(t, NewWorker(""))
	tc.startWorker(t, NewWorker(""))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	finals := make([]*JobStatus, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			finals[i], errs[i] = tc.cl.Run(ctx,
				JobRequest{Scenario: "dist-test-race", Opts: WireOptions{Frames: i + 1}})
		}(i)
	}
	wg.Wait()
	wantJSON, _ := localReport(t, "dist-test-race", WireOptions{Frames: 1}.Options())
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if finals[i].Status != JobDone {
			t.Fatalf("job %d: %s (%s)", i, finals[i].Status, finals[i].Error)
		}
		if !bytes.Equal(finals[i].Report, wantJSON) {
			t.Errorf("racing job %d report differs from single-kernel run:\n%s\nvs\n%s",
				i, finals[i].Report, wantJSON)
		}
	}
	t.Logf("racing jobs: hits=%d/%d", finals[0].PointHits, finals[1].PointHits)
}

// Batch streaming: points cheaper than the round trip coalesce into
// multi-point mid-lease bodies — each carrying exactly the points whose
// pinned cost reached the round trip, strictly fewer bodies than
// points — and the job's report stays byte-identical.
func TestBatchStreamingCoalescesUploads(t *testing.T) {
	registerWireSweep("dist-test-batch", 16, 2*time.Millisecond)
	var mu sync.Mutex
	var bodies []int // points per mid-lease body, heartbeats left out
	cfg := Config{LocalShards: -1, LeaseTTL: 500 * time.Millisecond, Poll: 10 * time.Millisecond, Logf: t.Logf}
	c := New(cfg)
	count := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/workers/points" {
			body, _ := io.ReadAll(r.Body)
			r.Body.Close()
			r.Body = io.NopCloser(bytes.NewReader(body))
			var up PointsUpload
			if json.Unmarshal(body, &up) == nil && len(up.Points) > 0 {
				mu.Lock()
				bodies = append(bodies, len(up.Points))
				mu.Unlock()
			}
		}
		c.Handler().ServeHTTP(w, r)
	})
	srv := httptest.NewServer(count)
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	tc := &testCluster{c: c, srv: srv, cl: &Client{Base: srv.URL, Poll: 10 * time.Millisecond}}

	w := NewWorker("")
	pinCosts(w, time.Millisecond, 4*time.Millisecond) // a batch is due every 4 points
	tc.startWorker(t, w)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := tc.cl.Run(ctx, JobRequest{Scenario: "dist-test-batch"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != JobDone {
		t.Fatalf("batched job: %s (%s)", st.Status, st.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) == 0 {
		t.Fatal("nothing was streamed; batching proved nothing")
	}
	streamed := 0
	for _, n := range bodies {
		streamed += n
		if n != 4 {
			t.Errorf("a stream body carried %d point(s), want exactly 4: the points whose cost reached the round trip", n)
		}
	}
	if len(bodies) >= streamed {
		t.Errorf("%d stream bodies for %d points: no coalescing happened", len(bodies), streamed)
	}
	wantJSON, _ := localReport(t, "dist-test-batch", WireOptions{}.Options())
	if !bytes.Equal(st.Report, wantJSON) {
		t.Errorf("batched report differs from single-kernel run:\n%s\nvs\n%s", st.Report, wantJSON)
	}
}

// Batch streaming under fault: a worker dies holding coalesced-but-
// unflushed points. Flushed batches are never re-run; the unflushed
// point and the unevaluated tail re-run elsewhere; the report stays
// byte-identical.
func TestBatchStreamingDeathReRunsOnlyUnflushedTail(t *testing.T) {
	counts := registerCountingSweep("dist-test-batch-kill", 12, 10*time.Millisecond)
	tc := newCluster(t, Config{LocalShards: -1, LeaseTTL: 250 * time.Millisecond})

	var died atomic.Bool
	var killLo, killHi atomic.Int64
	w := NewWorker("")
	pinCosts(w, time.Millisecond, 4*time.Millisecond) // a batch is due every 4 points
	// Die once after evaluating 5 points of a ≥6-point lease: points
	// 0–3 of the lease flushed as one batch, point 4 evaluated but
	// pending, the rest never evaluated.
	w.DropAfterPoints = func(l LeaseReply, evaluated int) bool {
		if evaluated == 5 && l.Hi-l.Lo >= 6 && died.CompareAndSwap(false, true) {
			killLo.Store(int64(l.Lo))
			killHi.Store(int64(l.Hi))
			return true
		}
		return false
	}
	tc.startWorker(t, w)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := tc.cl.Run(ctx, JobRequest{Scenario: "dist-test-batch-kill"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != JobDone {
		t.Fatalf("job did not survive the batched death: %s (%s)", st.Status, st.Error)
	}
	if !died.Load() {
		t.Fatal("fault was never injected; test proved nothing")
	}
	lo := int(killLo.Load())
	for i := 0; i < 12; i++ {
		got := counts(i)
		want := 1
		if i == lo+4 {
			// Evaluated by the victim but never flushed: part of the
			// unstreamed tail, so it re-runs exactly once more.
			want = 2
		}
		if got != want {
			t.Errorf("point %d evaluated %d time(s), want %d (victim held [%d,%d), flushed [%d,%d))",
				i, got, want, lo, killHi.Load(), lo, lo+4)
		}
	}
	wantJSON, _ := localReport(t, "dist-test-batch-kill", WireOptions{}.Options())
	if !bytes.Equal(st.Report, wantJSON) {
		t.Errorf("report after batched death differs:\n%s\nvs\n%s", st.Report, wantJSON)
	}
}

// A recovered job must not run with options it could not read: a
// non-terminal job whose journaled options do not parse into WireOptions
// is restored failed with the parse error — pollable, journaled, audited
// — and is never re-enqueued (re-run with zero options it would serve
// some other run's report under this job's ID).
func TestRecoveredJobWithUnreadableOptionsFails(t *testing.T) {
	counts := registerCountingSweep("dist-test-badopts", 2, 0)
	mem := persist.NewMem()
	mem.PutJob(persist.JobRecord{ID: "job-7", Scenario: "dist-test-badopts",
		Opts: json.RawMessage(`{"pes":"many"}`), Status: JobRunning, PointsTotal: 2})
	tc := newCluster(t, Config{Store: mem})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	st, err := tc.cl.Wait(ctx, "job-7")
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != JobFailed || !strings.Contains(st.Error, "options") || len(st.Report) != 0 {
		t.Fatalf("recovered job: %s (%q), report %s; want failed with the options parse error and no report", st.Status, st.Error, st.Report)
	}
	// A healthy job after it runs, under the next ID, and is the only
	// thing that evaluated a point.
	next, err := tc.cl.Run(ctx, JobRequest{Scenario: "dist-test-badopts"})
	if err != nil || next.Status != JobDone || next.ID != "job-8" {
		t.Fatalf("next job: %v / %+v, want job-8 done", err, next)
	}
	if counts(0) != 1 || counts(1) != 1 {
		t.Errorf("points evaluated %d and %d times, want once each: the unreadable job must never run", counts(0), counts(1))
	}
	state := mem.Load()
	var journaled *persist.JobRecord
	for i := range state.Jobs {
		if state.Jobs[i].ID == "job-7" {
			journaled = &state.Jobs[i]
		}
	}
	if journaled == nil || journaled.Status != JobFailed || journaled.Error != st.Error {
		t.Errorf("journal holds %+v, want job-7 failed with the same error (a restart must not retry it)", journaled)
	}
	audited := false
	for _, a := range state.Audit {
		audited = audited || (a.Action == "job-failed" && a.JobID == "job-7")
	}
	if !audited {
		t.Error("no job-failed audit record for job-7")
	}
}

// jobStatusLog is a journal that remembers the status of every job
// record written to it, in order.
type jobStatusLog struct {
	persist.Store
	mu       sync.Mutex
	statuses []string
}

func (s *jobStatusLog) PutJob(rec persist.JobRecord) {
	s.mu.Lock()
	s.statuses = append(s.statuses, rec.Status)
	s.mu.Unlock()
	s.Store.PutJob(rec)
}

// A job is journaled when it is queued and when it ends, not when it
// starts running: recovery re-runs a queued job and a running one alike.
// A running record, which older builds wrote, still recovers: the job
// resumes under its ID and completes with the uninterrupted run's report.
func TestJobStartIsNotJournaledAndRunningRecordsResume(t *testing.T) {
	registerCountingSweep("dist-test-running", 3, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wantJSON, _ := localReport(t, "dist-test-running", WireOptions{}.Options())

	log := &jobStatusLog{Store: persist.NewMem()}
	a := newCluster(t, Config{Store: log})
	if st, err := a.cl.Run(ctx, JobRequest{Scenario: "dist-test-running"}); err != nil || st.Status != JobDone {
		t.Fatalf("run: %v / %+v", err, st)
	}
	log.mu.Lock()
	got := strings.Join(log.statuses, ",")
	log.mu.Unlock()
	if got != JobQueued+","+JobDone {
		t.Errorf("journaled job statuses %s, want %s,%s", got, JobQueued, JobDone)
	}

	mem := persist.NewMem()
	mem.PutJob(persist.JobRecord{ID: "job-5", Scenario: "dist-test-running",
		Opts: json.RawMessage(`{}`), Status: JobRunning, PointsTotal: 3})
	b := newCluster(t, Config{Store: mem})
	st, err := b.cl.Wait(ctx, "job-5")
	if err != nil || st.Status != JobDone || !bytes.Equal(st.Report, wantJSON) {
		t.Fatalf("recovered running job: %v / %s (%s), report %s; want done with %s", err, st.Status, st.Error, st.Report, wantJSON)
	}
}
