package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/tenant"
)

// This file tests waiting in place of polling: lease asks that park on
// the coordinator until work may be grantable, the job status request
// that is held until the job is terminal, and what releases both. No
// test sleeps to let something happen: each waits on a channel, on a
// counted request, or — for "the ask is parked now" — on the
// coordinator's own parked count, which is what /v1/metrics serves.

// waitParked returns once exactly n lease asks are parked on c.
func waitParked(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		got := int(c.met.leaseParked.Value())
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d lease ask(s) parked, want %d", got, n)
		}
	}
}

// askResult is how one lease ask was answered.
type askResult struct {
	code  int
	lease LeaseReply
	err   error
}

// askAsync sends one lease ask carrying waitMS and delivers its answer.
func askAsync(ctx context.Context, base, token, workerID string, waitMS int64) <-chan askResult {
	out := make(chan askResult, 1)
	go func() {
		var res askResult
		res.code, res.err = doJSON(ctx, &http.Client{}, token, http.MethodPost, base,
			"/v1/workers/lease", LeaseRequest{WorkerID: workerID, WaitMS: waitMS}, &res.lease)
		out <- res
	}()
	return out
}

// await receives from ch or fails the test after ten seconds.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// countingRT counts the round trips of one HTTP client, by path.
type countingRT struct {
	next   http.RoundTripper
	total  atomic.Int64
	leases atomic.Int64
}

func (rt *countingRT) RoundTrip(r *http.Request) (*http.Response, error) {
	rt.total.Add(1)
	if r.URL.Path == "/v1/workers/lease" {
		rt.leases.Add(1)
	}
	return rt.next.RoundTrip(r)
}

func newCountingClient() (*http.Client, *countingRT) {
	rt := &countingRT{next: &http.Transport{}}
	return &http.Client{Transport: rt, Timeout: 30 * time.Second}, rt
}

// A parked ask is answered by the submit that gives it work: one
// request, no 204 in between.
func TestParkedAskGrantedByLaterSubmit(t *testing.T) {
	registerWireSweep("dist-test-park-submit", 1, 0)
	tc := newCluster(t, Config{LocalShards: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ask := askAsync(ctx, tc.srv.URL, "", "w-parked", 20_000)
	waitParked(t, tc.c, 1)
	st, err := tc.cl.Submit(ctx, JobRequest{Scenario: "dist-test-park-submit"})
	if err != nil {
		t.Fatal(err)
	}
	res := await(t, ask, "the parked ask to be granted")
	if res.err != nil || res.code != http.StatusOK || res.lease.JobID != st.ID {
		t.Fatalf("parked ask answered %d (%v) with a lease of job %q, want 200 for %s",
			res.code, res.err, res.lease.JobID, st.ID)
	}
	waitParked(t, tc.c, 0)
	m := tc.scrapeMetrics(t, "")
	if m[`gtw_lease_asks_total{result="granted"}`] != 1 || m[`gtw_lease_asks_total{result="empty"}`] != 0 {
		t.Errorf("lease asks granted/empty = %v/%v, want 1/0",
			m[`gtw_lease_asks_total{result="granted"}`], m[`gtw_lease_asks_total{result="empty"}`])
	}
}

// A parked ask is answered when a dead worker's lease expires and its
// points go back to the queue.
func TestParkedAskGrantedByExpiredLeaseRequeue(t *testing.T) {
	registerWireSweep("dist-test-park-expiry", 1, 0)
	tc := newCluster(t, Config{LocalShards: -1, LeaseTTL: 100 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	st, err := tc.cl.Submit(ctx, JobRequest{Scenario: "dist-test-park-expiry"})
	if err != nil {
		t.Fatal(err)
	}
	// The doomed worker takes the grid's only point and vanishes.
	doomed := await(t, askAsync(ctx, tc.srv.URL, "", "w-doomed", 20_000), "the first lease")
	if doomed.code != http.StatusOK {
		t.Fatalf("first ask: %d (%v)", doomed.code, doomed.err)
	}
	ask := askAsync(ctx, tc.srv.URL, "", "w-live", 20_000)
	res := await(t, ask, "the expired lease's point to be granted again")
	if res.code != http.StatusOK || res.lease.JobID != st.ID || res.lease.Lo != doomed.lease.Lo {
		t.Fatalf("after expiry the parked ask got %d, lease %+v; want the doomed lease's point", res.code, res.lease)
	}
	if m := tc.scrapeMetrics(t, ""); m["gtw_leases_expired_total"] < 1 || m[`gtw_lease_asks_total{result="empty"}`] != 0 {
		t.Errorf("expired %v, empty asks %v; want >= 1 and 0 (the live worker asked once and was held)",
			m["gtw_leases_expired_total"], m[`gtw_lease_asks_total{result="empty"}`])
	}
}

// A parked ask is answered when a completed lease takes its tenant back
// under MaxInFlight.
func TestParkedAskGrantedByInFlightCapRelease(t *testing.T) {
	registerWireSweep("dist-test-park-cap", 40, 0)
	s, _ := core.Lookup("dist-test-park-cap")
	sw := s.(*core.Sweep)
	reg := mustRegistry(t, &tenant.Tenant{Name: "alpha", Token: "tok-alpha", Class: tenant.Normal, MaxInFlight: 6})
	tc := newCluster(t, Config{Tenants: reg, LocalShards: -1, LeaseTTL: 30 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := tc.authedClient("tok-alpha").Submit(ctx, JobRequest{Scenario: "dist-test-park-cap"}); err != nil {
		t.Fatal(err)
	}
	first := await(t, askAsync(ctx, tc.srv.URL, "tok-alpha", "w-0", 20_000), "the first lease")
	if first.code != http.StatusOK || first.lease.Hi-first.lease.Lo < 6 {
		t.Fatalf("first lease %d %+v does not reach the cap of 6", first.code, first.lease)
	}
	// 34 points are pending, but the tenant is at its cap: the ask parks.
	ask := askAsync(ctx, tc.srv.URL, "tok-alpha", "w-1", 20_000)
	waitParked(t, tc.c, 1)
	l := first.lease
	if code, body := postAs(t, tc.srv.URL+"/v1/workers/result", "tok-alpha", lastBatch(t, sw, l)); code != http.StatusOK {
		t.Fatalf("result upload: %d: %s", code, body)
	}
	res := await(t, ask, "the capped tenant's next lease")
	if res.code != http.StatusOK || res.lease.Lo != l.Hi {
		t.Fatalf("after the cap released the parked ask got %d, lease %+v; want the points after %d", res.code, res.lease, l.Hi)
	}
}

// A parked ask with nothing to grant is answered 204 at its deadline,
// when its client gives up, and when the coordinator closes; and while
// it is parked its worker reads as seen just now.
func TestParkedAskReturnsEmpty(t *testing.T) {
	t.Run("at its deadline", func(t *testing.T) {
		tc := newCluster(t, Config{LocalShards: -1})
		asked := time.Now()
		res := await(t, askAsync(context.Background(), tc.srv.URL, "", "w-0", 150), "the deadline")
		if res.code != http.StatusNoContent || res.err != nil {
			t.Fatalf("ask at its deadline: %d (%v), want 204", res.code, res.err)
		}
		if held := time.Since(asked); held < 150*time.Millisecond {
			t.Errorf("a wait_ms=150 ask was answered after %s", held)
		}
	})
	t.Run("when its client cancels", func(t *testing.T) {
		tc := newCluster(t, Config{LocalShards: -1})
		ctx, cancel := context.WithCancel(context.Background())
		ask := askAsync(ctx, tc.srv.URL, "", "w-0", 20_000)
		waitParked(t, tc.c, 1)
		cancel()
		if res := await(t, ask, "the cancelled ask"); res.err == nil {
			t.Errorf("cancelled ask answered %d, want the client's own error", res.code)
		}
		waitParked(t, tc.c, 0) // the handler noticed and left
	})
	t.Run("on Close", func(t *testing.T) {
		tc := newCluster(t, Config{LocalShards: -1})
		ask := askAsync(context.Background(), tc.srv.URL, "", "w-0", 20_000)
		waitParked(t, tc.c, 1)
		st, err := tc.cl.Status(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Workers) != 1 || st.Workers[0].LastSeenMSAgo != 0 {
			t.Errorf("parked worker in /v1/status: %+v, want one worker seen 0 ms ago", st.Workers)
		}
		if m := tc.scrapeMetrics(t, ""); m["gtw_lease_parked"] != 1 {
			t.Errorf("gtw_lease_parked = %v, want 1", m["gtw_lease_parked"])
		}
		tc.c.Close()
		if res := await(t, ask, "Close to release the ask"); res.code != http.StatusNoContent || res.err != nil {
			t.Fatalf("ask released by Close: %d (%v), want 204", res.code, res.err)
		}
		// A closed coordinator parks nothing.
		if res := await(t, askAsync(context.Background(), tc.srv.URL, "", "w-0", 20_000), "an ask after Close"); res.code != http.StatusNoContent {
			t.Errorf("ask after Close: %d (%v), want an immediate 204", res.code, res.err)
		}
	})
}

// Wire compatibility: an ask without wait_ms is never held.
func TestAskWithoutWaitIsAnsweredAtOnce(t *testing.T) {
	tc := newCluster(t, Config{LocalShards: -1})
	if code := postJSONT(t, tc, "/v1/workers/lease", LeaseRequest{WorkerID: "w-0"}, nil); code != http.StatusNoContent {
		t.Fatalf("raw ask on an idle coordinator: %d, want 204", code)
	}
	if m := tc.scrapeMetrics(t, ""); m[`gtw_lease_asks_total{result="empty"}`] != 1 || m["gtw_lease_parked"] != 0 {
		t.Errorf("empty asks %v, parked %v; want 1 and 0", m[`gtw_lease_asks_total{result="empty"}`], m["gtw_lease_parked"])
	}
}

// A worker whose wait_ms is ignored — a coordinator from before it
// existed answers 204 at once — falls back to Poll pacing: five asks
// take at least four Poll intervals.
func TestWorkerPacesByPollWhenWaitIgnored(t *testing.T) {
	const poll = 20 * time.Millisecond
	asks := make(chan time.Time, 64)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/workers/register":
			writeJSON(w, http.StatusOK, RegisterReply{LeaseTTLMS: 1000, PollMS: poll.Milliseconds(), Proto: wireProto})
		case "/v1/workers/lease":
			var req LeaseRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.WaitMS <= 0 {
				t.Errorf("lease ask without a wait_ms: %+v (%v)", req, err)
			}
			asks <- time.Now()
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer stub.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = NewWorker(stub.URL).Run(ctx)
	}()
	first := await(t, asks, "the first ask")
	var last time.Time
	for i := 0; i < 4; i++ {
		last = await(t, asks, "the next ask")
	}
	cancel()
	<-done
	if span := last.Sub(first); span < 4*poll {
		t.Errorf("five asks in %s against a coordinator that ignores wait_ms: the worker spins (Poll %s)", span, poll)
	}
}

// stripWait makes h a coordinator from before wait_ms: the query
// parameter and the lease-request field never reach it.
func stripWait(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		q.Del("wait_ms")
		r.URL.RawQuery = q.Encode()
		if r.URL.Path == "/v1/workers/lease" {
			var req LeaseRequest
			_ = json.NewDecoder(r.Body).Decode(&req)
			req.WaitMS = 0
			b, _ := json.Marshal(req)
			r.Body = io.NopCloser(bytes.NewReader(b))
		}
		h.ServeHTTP(w, r)
	})
}

// Wire compatibility the other way (heir to
// TestWaitStreamFallsBackToPollingWhenStreamKilled: the preferred way
// of waiting is unavailable and the job still completes, by polling):
// today's Worker and Client against a coordinator that ignores wait_ms
// finish the job at Poll pacing, byte-identical.
func TestOldCoordinatorIgnoringWaitIsServedAtPollPacing(t *testing.T) {
	registerWireSweep("dist-test-park-old", 6, 5*time.Millisecond)
	c := New(Config{LocalShards: -1, LeaseTTL: time.Second, Poll: 5 * time.Millisecond, Logf: t.Logf})
	srv := httptest.NewServer(stripWait(c.Handler()))
	tc := &testCluster{c: c, srv: srv}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	tc.startWorker(t, NewWorker(""))
	hc, rt := newCountingClient()
	cl := &Client{Base: srv.URL, HTTP: hc, Poll: 5 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	st, err := cl.Submit(ctx, JobRequest{Scenario: "dist-test-park-old"})
	if err != nil {
		t.Fatal(err)
	}
	begun := time.Now()
	final, err := cl.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(begun)
	wantJSON, _ := localReport(t, "dist-test-park-old", WireOptions{}.Options())
	if final.Status != JobDone || !bytes.Equal(final.Report, wantJSON) {
		t.Fatalf("job through the old coordinator: %s (%s), report %s", final.Status, final.Error, final.Report)
	}
	polls := rt.total.Load() - 1 // all but the submit
	if polls < 2 {
		t.Errorf("%d status request(s): the coordinator ignored wait_ms, so the client must have polled", polls)
	}
	if atLeast := time.Duration(polls-1) * cl.Poll; took < atLeast {
		t.Errorf("%d status requests in %s: the client spins instead of sleeping Poll (%s) between them", polls, took, cl.Poll)
	}
	if m := tc.scrapeMetrics(t, ""); m["gtw_lease_parked"] != 0 || m[`gtw_lease_asks_total{result="empty"}`] == 0 {
		t.Errorf("parked %v, empty asks %v: the old coordinator must have answered the idle worker 204 at once",
			m["gtw_lease_parked"], m[`gtw_lease_asks_total{result="empty"}`])
	}
}

// An idle fleet is silent: once both workers are parked, a second of
// wall time (the thing measured, not a synchronisation) sees no lease
// request at all and no empty answer.
func TestIdleFleetIssuesNoEmptyAsks(t *testing.T) {
	tc := newCluster(t, Config{LocalShards: -1, Poll: 2 * time.Millisecond})
	var rts []*countingRT
	for i := 0; i < 2; i++ {
		w := NewWorker("")
		var rt *countingRT
		w.Client, rt = newCountingClient()
		rts = append(rts, rt)
		tc.startWorker(t, w)
	}
	waitParked(t, tc.c, 2)
	before := rts[0].leases.Load() + rts[1].leases.Load()
	time.Sleep(time.Second)
	if after := rts[0].leases.Load() + rts[1].leases.Load(); after != before {
		t.Errorf("an idle second cost %d lease request(s), want 0", after-before)
	}
	if m := tc.scrapeMetrics(t, ""); m[`gtw_lease_asks_total{result="empty"}`] != 0 || m["gtw_lease_parked"] != 2 {
		t.Errorf("empty asks %v, parked %v; want 0 and 2", m[`gtw_lease_asks_total{result="empty"}`], m["gtw_lease_parked"])
	}
}

// Heir to TestWaitStreamCompletesViaEvents (the happy path completes
// without falling back, and the final status carries the report): a
// cold one-point job costs its client exactly two round trips, the
// submit and one held status request answered with the report.
func TestWaitCompletesInOneHeldRequest(t *testing.T) {
	registerWireSweep("dist-test-park-onewait", 1, 30*time.Millisecond)
	tc := newCluster(t, Config{LocalShards: -1})
	tc.startWorker(t, NewWorker(""))
	hc, rt := newCountingClient()
	cl := &Client{Base: tc.srv.URL, HTTP: hc}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	st, err := cl.Submit(ctx, JobRequest{Scenario: "dist-test-park-onewait"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status == JobDone {
		t.Fatal("a 30 ms point was done by the time submit returned; the test proves nothing")
	}
	final, err := cl.WaitStream(ctx, st.ID, func(error) { t.Error("WaitStream's callback is never invoked") })
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantText := localReport(t, "dist-test-park-onewait", WireOptions{}.Options())
	if final.Status != JobDone || !bytes.Equal(final.Report, wantJSON) || final.Text != wantText {
		t.Fatalf("held status request answered %s (%s) with report %s", final.Status, final.Error, final.Report)
	}
	if n := rt.total.Load(); n != 2 {
		t.Errorf("a cold one-point job cost its client %d round trips, want 2 (submit + one wait)", n)
	}
}

// The held status request answers with the status as it stands when
// its deadline passes, and 404s for a job that does not exist.
func TestJobWaitDeadlineAndUnknownJob(t *testing.T) {
	registerWireSweep("dist-test-park-jobwait", 2, 0)
	tc := newCluster(t, Config{LocalShards: -1}) // no worker: the job cannot finish
	ctx := context.Background()
	st, err := tc.cl.Submit(ctx, JobRequest{Scenario: "dist-test-park-jobwait"})
	if err != nil {
		t.Fatal(err)
	}
	asked := time.Now()
	code, body := getAs(t, tc.srv.URL+"/v1/jobs/"+st.ID+"?wait_ms=150", "")
	var got JobStatus
	if err := json.Unmarshal(body, &got); code != http.StatusOK || err != nil {
		t.Fatalf("wait on a running job: %d: %s", code, body)
	}
	if got.Status == JobDone || got.Status == JobFailed || len(got.Report) != 0 {
		t.Errorf("job without workers reported %s at the deadline", got.Status)
	}
	if held := time.Since(asked); held < 150*time.Millisecond {
		t.Errorf("a wait_ms=150 status request was answered after %s", held)
	}
	if code, _ := getAs(t, tc.srv.URL+"/v1/jobs/job-999?wait_ms=20000", ""); code != http.StatusNotFound {
		t.Errorf("wait on an unknown job: %d, want 404", code)
	}
}

// What gtwrun -connect relies on when the coordinator dies under a
// wait: the held request fails with the transport's error (it neither
// hangs nor invents a status), and once the coordinator is back on its
// journal the same client reads the job's last state under its old ID
// and a second Wait completes it, byte-identical.
func TestWaitSurfacesErrorThenLastStatusAcrossCoordinatorRestart(t *testing.T) {
	registerWireSweep("dist-test-park-restart", 30, 20*time.Millisecond)
	mem := persist.NewMem()
	var live atomic.Pointer[Coordinator] // nil: the process is down
	waiting := make(chan struct{}, 8)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := live.Load()
		if c == nil {
			// What a request the transport replays on a fresh connection
			// finds while the coordinator is away.
			http.Error(w, "coordinator restarting", http.StatusServiceUnavailable)
			return
		}
		if r.URL.Query().Has("wait_ms") {
			waiting <- struct{}{}
		}
		c.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	a := New(Config{Store: mem, Logf: t.Logf})
	live.Store(a)
	cl := &Client{Base: srv.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := cl.Submit(ctx, JobRequest{Scenario: "dist-test-park-restart"})
	if err != nil {
		t.Fatal(err)
	}
	type waited struct {
		st  *JobStatus
		err error
	}
	res := make(chan waited, 1)
	go func() {
		st, err := cl.Wait(ctx, st.ID)
		res <- waited{st, err}
	}()
	await(t, waiting, "the wait to reach the coordinator")
	// The crash: the process is gone and its connections drop.
	live.Store(nil)
	srv.CloseClientConnections()
	if got := await(t, res, "the held request to fail"); got.err == nil {
		t.Fatalf("Wait across a dropped connection returned %+v, want the transport error", got.st)
	}
	a.Close()
	b := New(Config{Store: mem, Logf: t.Logf})
	defer b.Close()
	live.Store(b)

	last, err := cl.Job(ctx, st.ID)
	if err != nil {
		t.Fatalf("job lost across the restart: %v", err)
	}
	if last.ID != st.ID || last.Status == JobFailed {
		t.Errorf("last status after the restart: %+v, want the resumed job", last)
	}
	final, err := cl.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := localReport(t, "dist-test-park-restart", WireOptions{}.Options())
	if final.Status != JobDone || !bytes.Equal(final.Report, wantJSON) {
		t.Fatalf("job resumed after the restart: %s (%s)", final.Status, final.Error)
	}
}

// http.Server.Shutdown waits for active requests. With ReleaseParked
// registered it returns at once although two lease asks, a job wait and
// an event stream are being held; and once Close has returned, every
// goroutine the coordinator and its requests started is gone.
func TestShutdownReleasesParkedRequests(t *testing.T) {
	registerWireSweep("dist-test-park-shutdown", 2, 0)
	goroutines := runtime.NumGoroutine()
	c := New(Config{LocalShards: -1, Logf: t.Logf})
	arrived := make(chan string, 8)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("wait_ms") {
			arrived <- r.URL.Path
		}
		c.Handler().ServeHTTP(w, r)
	}))
	srv.Config.RegisterOnShutdown(c.ReleaseParked)
	srv.Start()
	tr := &http.Transport{}
	cl := &Client{Base: srv.URL, HTTP: &http.Client{Transport: tr}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// An event stream, subscribed once its opening comment is read.
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/events", nil)
	stream, err := cl.HTTP.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Body.Read(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	streamEnded := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, stream.Body)
		stream.Body.Close()
		streamEnded <- err
	}()
	// Two asks parked behind a tenantless, workerless job's wait: the
	// job's grid is leased to a worker that never answers, so nothing
	// is grantable and nothing finishes.
	st, err := cl.Submit(ctx, JobRequest{Scenario: "dist-test-park-shutdown"})
	if err != nil {
		t.Fatal(err)
	}
	for leased := 0; leased < 2; {
		res := await(t, askAsync(ctx, srv.URL, "", "w-silent", 20_000), "the grid to be leased out")
		leased += res.lease.Hi - res.lease.Lo
	}
	asks := []<-chan askResult{
		askAsync(ctx, srv.URL, "", "w-1", 20_000), askAsync(ctx, srv.URL, "", "w-2", 20_000),
	}
	waitParked(t, c, 2)
	type waited struct {
		st  *JobStatus
		err error
	}
	jobWait := make(chan waited, 1)
	go func() {
		var got JobStatus
		err := cl.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"?wait_ms=20000", nil, &got)
		jobWait <- waited{&got, err}
	}()
	for got := ""; !strings.HasPrefix(got, "/v1/jobs/"); {
		got = await(t, arrived, "the job wait to reach the coordinator")
	}

	begun := time.Now()
	shutCtx, shutCancel := context.WithTimeout(ctx, 5*time.Second)
	defer shutCancel()
	if err := srv.Config.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if took := time.Since(begun); took > time.Second {
		t.Errorf("Shutdown took %s with parked requests, want well under a second", took)
	}
	for _, ask := range asks {
		if res := await(t, ask, "a released ask"); res.code != http.StatusNoContent || res.err != nil {
			t.Errorf("released ask: %d (%v), want 204", res.code, res.err)
		}
	}
	if got := await(t, jobWait, "the released job wait"); got.err != nil || got.st.Status != JobRunning {
		t.Errorf("released job wait: %+v (%v), want the job's current status, running", got.st, got.err)
	}
	if err := await(t, streamEnded, "the event stream to close"); err != nil {
		t.Errorf("event stream ended with %v, want a clean close", err)
	}
	c.Close()
	srv.Close()
	tr.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; runtime.Gosched() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive Close, %d before the coordinator existed:\n%s",
				runtime.NumGoroutine(), goroutines, buf[:runtime.Stack(buf, true)])
		}
	}
}

// With nobody subscribed — every job on a coordinator without a
// dashboard attached — publishing an event renders nothing.
func TestPublishWithoutSubscribersAllocatesNothing(t *testing.T) {
	h := newEventHub()
	ev := Event{Type: "job", Job: "job-1", Scenario: "fmri-dataflow", Tenant: "default", Status: JobDone, PointsDone: 1, PointsTotal: 1}
	if allocs := testing.AllocsPerRun(200, func() { h.publish(ev) }); allocs != 0 {
		t.Errorf("publish with no subscribers allocates %v time(s) per event, want 0", allocs)
	}
	ch := h.subscribe()
	h.publish(ev)
	select {
	case frame := <-ch:
		if !bytes.HasPrefix(frame, []byte("event: job\ndata: {")) {
			t.Errorf("frame %q", frame)
		}
	default:
		t.Error("a subscriber was not offered the frame")
	}
	// A subscriber that stops reading loses frames; publish never blocks.
	for i := 0; i < 2*subBuffer; i++ {
		h.publish(ev)
	}
	if len(ch) != subBuffer {
		t.Errorf("slow subscriber holds %d frames, want its buffer of %d", len(ch), subBuffer)
	}
}
