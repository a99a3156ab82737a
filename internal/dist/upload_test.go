package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// This file tests the one upload path on the wire: each point crosses it
// once, a batch whose acknowledgement was lost is resent and taken once,
// the last batch completes the lease or — leaving a hole — drops it, the
// register handshake refuses a foreign protocol, and request bodies are
// bounded.

// uploadRT watches a worker's uploads: it sums the point-value bytes
// they carry, keeps their bodies, and — when lose says so — lets the
// coordinator process a request and then loses its answer.
type uploadRT struct {
	lose func(path string, nth int) bool

	mu         sync.Mutex
	uploads    []PointsUpload
	paths      []string
	valueBytes int
}

func (rt *uploadRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != "/v1/workers/points" && r.URL.Path != "/v1/workers/result" {
		return http.DefaultTransport.RoundTrip(r)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	var up PointsUpload
	if _ = json.Unmarshal(body, &up); len(up.Points) == 0 {
		return http.DefaultTransport.RoundTrip(r) // a heartbeat
	}
	rt.mu.Lock()
	nth := len(rt.uploads)
	rt.uploads, rt.paths = append(rt.uploads, up), append(rt.paths, r.URL.Path)
	for _, p := range up.Points {
		rt.valueBytes += len(p.Value)
	}
	rt.mu.Unlock()
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && rt.lose != nil && rt.lose(r.URL.Path, nth) {
		resp.Body.Close()
		return nil, errors.New("uploadRT: answer lost")
	}
	return resp, err
}

func defaultTenant(t *testing.T, tc *testCluster) TenantStatus {
	t.Helper()
	st, err := tc.cl.Status(context.Background())
	if err != nil || len(st.Tenants) != 1 {
		t.Fatalf("status: %v / %+v", err, st)
	}
	return st.Tenants[0]
}

// pinCosts pins a worker's flush rule: every point costs eval and the
// round trip is rtt, so a mid-lease batch carries ceil(rtt/eval)
// points whatever the loopback's timing.
func pinCosts(w *Worker, eval, rtt time.Duration) {
	w.costs = func(int) (time.Duration, time.Duration) { return eval, rtt }
}

// A multi-point lease puts each point on the wire once, batched or not:
// every grid point is in exactly one upload, and the point-value bytes a
// worker uploads for a whole job equal the bytes the store took in, and
// the same number is attributed to the tenant.
func TestEachPointCrossesTheWireOnce(t *testing.T) {
	registerWireSweep("dist-test-once", 12, 0)
	tc := newCluster(t, Config{LocalShards: -1})
	rt := &uploadRT{}
	w := NewWorker("")
	w.Client = &http.Client{Transport: rt}
	pinCosts(w, time.Millisecond, 3*time.Millisecond) // mid-lease batches of 3
	tc.startWorker(t, w)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-once"})
	if err != nil || st.Status != JobDone {
		t.Fatalf("job: %v / %+v", err, st)
	}
	status, err := tc.cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	multi := false
	sent := map[int]int{}
	for i, up := range rt.uploads {
		multi = multi || rt.paths[i] == "/v1/workers/points"
		for _, p := range up.Points {
			sent[p.Index]++
		}
	}
	if !multi {
		t.Fatal("no lease had a mid-lease batch; the test proved nothing")
	}
	for i := 0; i < 12; i++ {
		if sent[i] != 1 {
			t.Errorf("point %d crossed the wire %d times, want once", i, sent[i])
		}
	}
	if int64(rt.valueBytes) != status.StoreBytes || status.StoreBytes != status.Tenants[0].StoreBytes {
		t.Errorf("worker uploaded %d bytes of point values; store holds %d, tenant is billed %d: want all equal",
			rt.valueBytes, status.StoreBytes, status.Tenants[0].StoreBytes)
	}
}

// A mid-lease batch whose answer is lost stays pending on the worker
// and is resent with the next batch; the coordinator, which did take it
// the first time, records and attributes each point once.
func TestLostAcknowledgementResendsAndAttributesOnce(t *testing.T) {
	counts := registerCountingSweep("dist-test-lostack", 12, 0)
	tc := newCluster(t, Config{LocalShards: -1})
	rt := &uploadRT{lose: func(path string, nth int) bool { return nth == 0 || nth == 3 }}
	w := NewWorker("")
	w.Client = &http.Client{Transport: rt}
	pinCosts(w, time.Millisecond, time.Millisecond) // every point is due on its own
	tc.startWorker(t, w)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-lostack"})
	if err != nil || st.Status != JobDone {
		t.Fatalf("job: %v / %+v", err, st)
	}
	for i := 0; i < 12; i++ {
		if counts(i) != 1 {
			t.Errorf("point %d evaluated %d times, want once", i, counts(i))
		}
	}
	wantJSON, _ := localReport(t, "dist-test-lostack", WireOptions{}.Options())
	if !bytes.Equal(st.Report, wantJSON) {
		t.Errorf("report differs from the single-kernel run:\n%s\nvs\n%s", st.Report, wantJSON)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.paths[0] != "/v1/workers/points" || len(rt.uploads[1].Points) != 2 ||
		rt.uploads[1].Points[0].Index != rt.uploads[0].Points[0].Index {
		t.Fatalf("uploads %+v then %+v: want the unacknowledged point resent with the next one", rt.uploads[0], rt.uploads[1])
	}
	var stored int64
	sent := map[int]int{}
	for _, up := range rt.uploads {
		for _, p := range up.Points {
			if sent[p.Index]++; sent[p.Index] == 1 {
				stored += int64(len(p.Value))
			}
		}
	}
	leases := tc.scrapeMetrics(t, "")["gtw_leases_granted_total"]
	ten := defaultTenant(t, tc)
	if ten.PointsRun != 12 || ten.StoreBytes != stored || ten.PointsStreamed != 12-int64(leases) {
		t.Errorf("tenant billed %d points run, %d streamed, %d store bytes; want 12, %d (all but each of %v leases' last) and %d: a resent point counts once",
			ten.PointsRun, ten.PointsStreamed, ten.StoreBytes, 12-int64(leases), leases, stored)
	}
}

// The flush rule weighs pending evaluation against the upload round
// trip: points much cheaper than a round trip ride their lease's last
// batch — no mid-lease upload at all — while points costlier than one
// stream one at a time, the moment each finishes.
func TestFlushRuleBatchesCheapPointsAndStreamsCostlyOnes(t *testing.T) {
	registerWireSweep("dist-test-flush", 12, 0)
	for _, pin := range []struct {
		name      string
		eval, rtt time.Duration
		stream    bool // every point but each lease's last goes mid-lease, one per body
	}{
		{"cheap", time.Microsecond, time.Second, false},
		{"costly", 2 * time.Millisecond, time.Millisecond, true},
	} {
		t.Run(pin.name, func(t *testing.T) {
			tc := newCluster(t, Config{LocalShards: -1})
			rt := &uploadRT{}
			w := NewWorker("")
			w.Client = &http.Client{Transport: rt}
			pinCosts(w, pin.eval, pin.rtt)
			tc.startWorker(t, w)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			st, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-flush"})
			if err != nil || st.Status != JobDone {
				t.Fatalf("job: %v / %+v", err, st)
			}
			leases := int(tc.scrapeMetrics(t, "")["gtw_leases_granted_total"])
			rt.mu.Lock()
			defer rt.mu.Unlock()
			var mid, last, points int
			for i, up := range rt.uploads {
				points += len(up.Points)
				if rt.paths[i] == "/v1/workers/result" {
					last++
				} else if mid++; len(up.Points) != 1 {
					t.Errorf("mid-lease body carries %d points, want 1", len(up.Points))
				}
			}
			if points != 12 || last != leases {
				t.Errorf("%d points in %d last batches for %d leases: want 12 points, one last batch per lease", points, last, leases)
			}
			want := 0
			if pin.stream {
				want = 12 - leases
			}
			if mid != want {
				t.Errorf("%d mid-lease bodies over %d leases, want %d", mid, leases, want)
			}
			if leases == 12 {
				t.Error("no lease had more than one point; the test proved nothing")
			}
		})
	}
}

// A last batch that leaves a hole is refused, and only the hole goes
// back to the queue: what the lease had delivered stays delivered.
func TestHoleInLastBatchRequeuesOnlyTheHole(t *testing.T) {
	counts := registerCountingSweep("dist-test-hole", 12, 0)
	s, _ := core.Lookup("dist-test-hole")
	sw := s.(*core.Sweep)
	mem := persist.NewMem()
	tc := newCluster(t, Config{LocalShards: -1, Store: mem})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := tc.cl.Submit(ctx, JobRequest{Scenario: "dist-test-hole"})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, tc.cl, st.ID)
	var lease LeaseReply
	if code := postJSONT(t, tc, "/v1/workers/lease", LeaseRequest{WorkerID: "holey"}, &lease); code != http.StatusOK {
		t.Fatalf("lease ask: %d", code)
	}
	if lease.Hi-lease.Lo < 4 {
		t.Fatalf("first lease [%d,%d) too small to leave a hole in the middle", lease.Lo, lease.Hi)
	}
	hole := lease.Lo + 2
	up := PointsUpload{JobID: lease.JobID, Seq: lease.Seq, Points: evalPoints(t, sw, lease, lease.Lo, hole)}
	var reply PointsReply
	if postJSONT(t, tc, "/v1/workers/points", up, &reply); !reply.OK {
		t.Fatal("mid-lease batch of a held lease refused")
	}
	up.Points = evalPoints(t, sw, lease, hole+1, lease.Hi)
	if code := postJSONT(t, tc, "/v1/workers/result", up, nil); code != http.StatusBadRequest {
		t.Fatalf("last batch leaving point %d out: status %d, want 400", hole, code)
	}
	var again LeaseReply
	if code := postJSONT(t, tc, "/v1/workers/lease", LeaseRequest{WorkerID: "rescuer"}, &again); code != http.StatusOK ||
		again.Lo != hole || again.Hi != hole+1 {
		t.Fatalf("after the refusal the next lease is %d [%d,%d), want exactly the hole [%d,%d) — requeued at once, not at TTL",
			code, again.Lo, again.Hi, hole, hole+1)
	}
	postJSONT(t, tc, "/v1/workers/result", lastBatch(t, sw, again), nil)
	leasePump(t, tc, sw, "rescuer")
	final, err := tc.cl.Wait(ctx, st.ID)
	if err != nil || final.Status != JobDone {
		t.Fatalf("job: %v / %+v", err, final)
	}
	for i := 0; i < 12; i++ {
		if counts(i) != 1 {
			t.Errorf("point %d evaluated %d times, want once (the hole was %d)", i, counts(i), hole)
		}
	}
	wantJSON, _ := localReport(t, "dist-test-hole", WireOptions{}.Options())
	if !bytes.Equal(final.Report, wantJSON) {
		t.Errorf("report differs from the single-kernel run:\n%s\nvs\n%s", final.Report, wantJSON)
	}
	for _, w := range mem.Load().Workers {
		if w.ID == "holey" && w.Points != 0 {
			t.Errorf("the refused lease counts %d point(s) toward its worker's journaled tally", w.Points)
		}
	}
}

// The register handshake, coordinator side: a register naming another
// protocol number — or none — is a 400 that states both numbers.
func TestRegisterRefusesForeignProtocol(t *testing.T) {
	tc := newCluster(t, Config{})
	for _, proto := range []int{0, wireProto - 1, wireProto + 1} {
		code, body := postAs(t, tc.srv.URL+"/v1/workers/register", "", RegisterRequest{WorkerID: "w-old", Proto: proto})
		if code != http.StatusBadRequest || !strings.Contains(string(body), fmt.Sprint("protocol ", proto)) ||
			!strings.Contains(string(body), fmt.Sprint("coordinator ", wireProto)) {
			t.Errorf("register with proto %d: %d %q, want a 400 naming %d and %d", proto, code, body, proto, wireProto)
		}
	}
	if st, err := tc.cl.Status(context.Background()); err != nil || len(st.Workers) != 0 {
		t.Errorf("a refused register left a worker behind: %v / %+v", err, st)
	}
}

// The handshake, worker side: against a coordinator that answers the
// register without the number (one from before it existed), with another
// number, or with a refusal, Run returns an error after that one request
// — it neither retries nor asks for a lease.
func TestWorkerStopsOnProtocolMismatch(t *testing.T) {
	for name, answer := range map[string]func(w http.ResponseWriter){
		"no number": func(w http.ResponseWriter) {
			_, _ = io.WriteString(w, `{"lease_ttl_ms":1000,"poll_ms":5}`)
		},
		"another number": func(w http.ResponseWriter) {
			writeJSON(w, http.StatusOK, RegisterReply{LeaseTTLMS: 1000, PollMS: 5, Proto: wireProto + 1})
		},
		"refused": func(w http.ResponseWriter) {
			http.Error(w, "worker speaks protocol 2, this coordinator 3", http.StatusBadRequest)
		},
	} {
		t.Run(name, func(t *testing.T) {
			var requests atomic.Int64
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				if r.URL.Path != "/v1/workers/register" {
					t.Errorf("worker went on to %s", r.URL.Path)
				}
				answer(w)
			}))
			defer stub.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			err := NewWorker(stub.URL).Run(ctx)
			if err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), "protocol") {
				t.Fatalf("Run returned %v (ctx: %v), want a protocol error at once", err, ctx.Err())
			}
			if n := requests.Load(); n != 1 {
				t.Errorf("%d requests, want the one register", n)
			}
		})
	}
}

// Request bodies are bounded: one of exactly maxBodyBytes is served, one
// byte more is a 413 before anything is parsed.
func TestRequestBodyBound(t *testing.T) {
	tc := newCluster(t, Config{})
	frame := `{"worker_id":"w","job_id":"","seq":1}`
	for _, tc2 := range []struct {
		size, want int
	}{{maxBodyBytes, http.StatusOK}, {maxBodyBytes + 1, http.StatusRequestEntityTooLarge}} {
		body := strings.NewReader(strings.Replace(frame, `""`, `"`+strings.Repeat("j", tc2.size-len(frame))+`"`, 1))
		resp, err := http.Post(tc.srv.URL+"/v1/workers/points", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc2.want {
			t.Errorf("%d-byte body: status %d (%.80s), want %d", tc2.size, resp.StatusCode, msg, tc2.want)
		}
	}
}

// A worker whose last batch the coordinator has already taken — here
// posted ahead of it by the BeforeUpload hook, as a retry whose first
// attempt did arrive would be — is answered ok:false, counts nothing
// twice and goes on to its next lease.
func TestWorkerLastBatchAlreadyTaken(t *testing.T) {
	registerWireSweep("dist-test-taken", 6, 0)
	tc := newCluster(t, Config{LocalShards: -1})
	w := NewWorker("")
	var ahead atomic.Int64
	w.BeforeUpload = func(up *PointsUpload) {
		var reply PointsReply
		if postJSONT(t, tc, "/v1/workers/result", up, &reply); reply.OK {
			ahead.Add(1)
		}
	}
	tc.startWorker(t, w)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-taken"})
	if err != nil || st.Status != JobDone {
		t.Fatalf("job: %v / %+v", err, st)
	}
	status, err := tc.cl.Status(ctx)
	if err != nil || len(status.Workers) != 1 {
		t.Fatalf("status: %v / %+v", err, status)
	}
	if ahead.Load() == 0 || status.Workers[0].Points != 6 || status.Tenants[0].PointsRun != 6 {
		t.Errorf("%d last batches taken ahead of the worker's own; worker tally %d, tenant points_run %d; want > 0, 6 and 6",
			ahead.Load(), status.Workers[0].Points, status.Tenants[0].PointsRun)
	}
}
