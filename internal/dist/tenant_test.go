package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/tenant"
)

// mustRegistry builds a tenant registry or fails the test.
func mustRegistry(t *testing.T, tenants ...*tenant.Tenant) *tenant.Registry {
	t.Helper()
	reg, err := tenant.NewRegistry(tenants)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// authedClient is a Client bound to one tenant's token.
func (tc *testCluster) authedClient(token string) *Client {
	return &Client{Base: tc.srv.URL, Token: token, Poll: 10 * time.Millisecond}
}

// postAs posts a JSON body with a token and returns the status code.
func postAs(t *testing.T, url, token string, in any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// getAs gets a URL with a token and returns the status code and body.
func getAs(t *testing.T, url, token string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// registerFakeWorker announces a worker ID without running a worker
// loop, so lease sizing sees a populated pool.
func (tc *testCluster) registerFakeWorker(t *testing.T, token, id string) {
	t.Helper()
	code, body := postAs(t, tc.srv.URL+"/v1/workers/register", token, RegisterRequest{WorkerID: id, Proto: wireProto})
	if code != http.StatusOK {
		t.Fatalf("register %s: %d: %s", id, code, body)
	}
}

// takeLease pulls one lease as a fake worker; ok=false on 204.
func (tc *testCluster) takeLease(t *testing.T, token, workerID string) (*LeaseReply, bool) {
	t.Helper()
	code, body := postAs(t, tc.srv.URL+"/v1/workers/lease", token, LeaseRequest{WorkerID: workerID})
	switch code {
	case http.StatusNoContent:
		return nil, false
	case http.StatusOK:
		var l LeaseReply
		if err := json.Unmarshal(body, &l); err != nil {
			t.Fatal(err)
		}
		return &l, true
	default:
		t.Fatalf("lease: %d: %s", code, body)
		return nil, false
	}
}

// waitRunning polls a job until its grid is published (run installed).
func waitRunning(t *testing.T, cl *Client, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := cl.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status == JobRunning && st.PointsTotal > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// scrapeMetrics fetches /v1/metrics and parses the sample lines into
// series name (with labels) -> value.
func (tc *testCluster) scrapeMetrics(t *testing.T, token string) map[string]float64 {
	t.Helper()
	code, body := getAs(t, tc.srv.URL+"/v1/metrics", token)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d: %s", code, body)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// A coordinator with a tenant registry must reject missing and unknown
// tokens on every endpoint except /healthz, and serve valid ones. The
// rejections surface in the auth-failure counter.
func TestAuthRequiredWhenTenantsConfigured(t *testing.T) {
	registerWireSweep("dist-test-auth", 4, 0)
	reg := mustRegistry(t,
		&tenant.Tenant{Name: "alpha", Token: "tok-alpha", Class: tenant.High},
		&tenant.Tenant{Name: "beta", Token: "tok-beta", Class: tenant.Bulk},
	)
	tc := newCluster(t, Config{Tenants: reg})

	submit := JobRequest{Scenario: "dist-test-auth"}
	if code, _ := postAs(t, tc.srv.URL+"/v1/jobs", "", submit); code != http.StatusUnauthorized {
		t.Errorf("submit without token: %d, want 401", code)
	}
	if code, _ := postAs(t, tc.srv.URL+"/v1/jobs", "tok-wrong", submit); code != http.StatusUnauthorized {
		t.Errorf("submit with unknown token: %d, want 401", code)
	}
	if code, _ := getAs(t, tc.srv.URL+"/v1/status", ""); code != http.StatusUnauthorized {
		t.Errorf("status without token: %d, want 401", code)
	}
	if code, _ := getAs(t, tc.srv.URL+"/v1/metrics", ""); code != http.StatusUnauthorized {
		t.Errorf("metrics without token: %d, want 401", code)
	}
	if code, _ := getAs(t, tc.srv.URL+"/healthz", ""); code != http.StatusOK {
		t.Errorf("healthz must stay open: %d, want 200", code)
	}

	cl := tc.authedClient("tok-alpha")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := runJob(ctx, cl, submit)
	if err != nil {
		t.Fatalf("authenticated run: %v", err)
	}
	if st.Status != JobDone {
		t.Fatalf("authenticated job: %s (%s)", st.Status, st.Error)
	}
	if st.Tenant != "alpha" || st.Class != string(tenant.High) {
		t.Errorf("job attribution = %q/%q, want alpha/high", st.Tenant, st.Class)
	}

	m := tc.scrapeMetrics(t, "tok-alpha")
	if m["gtw_auth_failures_total"] < 4 {
		t.Errorf("gtw_auth_failures_total = %v, want >= 4", m["gtw_auth_failures_total"])
	}
}

// Tenancy is execution metadata only: two tenants with different
// priority classes submitting the same scenario get reports
// byte-identical to each other and to a single-kernel local run — even
// though the second submission is largely served from the store.
func TestTwoTenantReportsByteIdentical(t *testing.T) {
	registerWireSweep("dist-test-tenantid", 12, 0)
	reg := mustRegistry(t,
		&tenant.Tenant{Name: "alpha", Token: "tok-alpha", Class: tenant.High},
		&tenant.Tenant{Name: "beta", Token: "tok-beta", Class: tenant.Bulk},
	)
	tc := newCluster(t, Config{Tenants: reg})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	opts := WireOptions{Frames: 3}
	req := JobRequest{Scenario: "dist-test-tenantid", Opts: opts}
	stA, err := runJob(ctx, tc.authedClient("tok-alpha"), req)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := runJob(ctx, tc.authedClient("tok-beta"), req)
	if err != nil {
		t.Fatal(err)
	}
	if stA.ID == stB.ID {
		t.Fatalf("tenants shared job %s; identical jobs must not be shared across tenants", stA.ID)
	}
	if stA.Status != JobDone || stB.Status != JobDone {
		t.Fatalf("jobs: %s/%s (%s/%s)", stA.Status, stB.Status, stA.Error, stB.Error)
	}
	wantJSON, wantText := localReport(t, "dist-test-tenantid", opts.Options())
	if !bytes.Equal(stA.Report, wantJSON) || !bytes.Equal(stB.Report, wantJSON) {
		t.Errorf("tenant reports differ from the single-kernel run")
	}
	if stA.Text != wantText || stB.Text != wantText {
		t.Errorf("tenant report texts differ from the single-kernel run")
	}
	if !bytes.Equal(stA.Report, stB.Report) {
		t.Errorf("reports differ across tenants:\n%s\nvs\n%s", stA.Report, stB.Report)
	}
	// Tenancy never reaches point keys: the second tenant's identical
	// job is served entirely from the first's stored points.
	if !stB.Cached || stB.PointHits != 12 {
		t.Errorf("beta's job: cached=%v with %d/12 point hits; want all 12 from the store",
			stB.Cached, stB.PointHits)
	}
}

// The lease queue is a weighted fair queue: with a high-weight and a
// bulk tenant both saturated, every grant goes to the tenant with the
// smaller virtual time (served/weight), so service interleaves near
// the 4:1 class ratio — and the bulk tenant is never starved while the
// high tenant has pending work.
func TestLeaseGrantsFollowWeightedFairShare(t *testing.T) {
	registerWireSweep("dist-test-fair", 40, 0)
	reg := mustRegistry(t,
		&tenant.Tenant{Name: "alpha", Token: "tok-alpha", Class: tenant.High},
		&tenant.Tenant{Name: "beta", Token: "tok-beta", Class: tenant.Bulk},
	)
	tc := newCluster(t, Config{Tenants: reg, LocalShards: -1})
	// Populate the pool before submit so lease sizing carves fine
	// leases (several grants per grid) instead of one huge lease.
	for i := 0; i < 4; i++ {
		tc.registerFakeWorker(t, "tok-alpha", fmt.Sprintf("w-%d", i))
	}

	ctx := context.Background()
	clA, clB := tc.authedClient("tok-alpha"), tc.authedClient("tok-beta")
	req := func(f int) JobRequest {
		return JobRequest{Scenario: "dist-test-fair", Opts: WireOptions{Frames: f}}
	}
	stA, err := clA.Submit(ctx, req(1))
	if err != nil {
		t.Fatal(err)
	}
	stB, err := clB.Submit(ctx, req(2))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, clA, stA.ID)
	waitRunning(t, clB, stB.ID)

	wA, wB := tenant.High.Weight(), tenant.Bulk.Weight()
	servedA, servedB := 0, 0
	betaFirstGrantAt := -1
	for grant := 0; ; grant++ {
		l, ok := tc.takeLease(t, "tok-alpha", "w-0")
		if !ok {
			break
		}
		points := l.Hi - l.Lo
		bothPending := servedA < 40 && servedB < 40
		switch l.JobID {
		case stA.ID:
			if bothPending && float64(servedA)/wA > float64(servedB)/wB+1e-9 {
				t.Errorf("grant %d went to alpha at vt %.2f > beta's %.2f",
					grant, float64(servedA)/wA, float64(servedB)/wB)
			}
			servedA += points
		case stB.ID:
			if bothPending && float64(servedB)/wB > float64(servedA)/wA+1e-9 {
				t.Errorf("grant %d went to beta at vt %.2f > alpha's %.2f",
					grant, float64(servedB)/wB, float64(servedA)/wA)
			}
			if betaFirstGrantAt < 0 {
				betaFirstGrantAt = grant
			}
			servedB += points
		default:
			t.Fatalf("lease for unexpected job %s", l.JobID)
		}
	}
	if servedA != 40 || servedB != 40 {
		t.Fatalf("grids not fully granted: alpha %d, beta %d", servedA, servedB)
	}
	// Starvation check: the bulk tenant received service while the
	// high tenant still had pending work (its first grant cannot wait
	// for alpha's grid to drain).
	if betaFirstGrantAt < 0 || betaFirstGrantAt > 8 {
		t.Errorf("beta's first grant came at index %d; bulk tenant starved", betaFirstGrantAt)
	}
	m := tc.scrapeMetrics(t, "tok-alpha")
	if m["gtw_leases_granted_total"] < 2 {
		t.Errorf("gtw_leases_granted_total = %v, want >= 2", m["gtw_leases_granted_total"])
	}
}

// Regression: a lease that expires must refund the tenant's virtual
// time for its unserved points. Without the refund, the high-priority
// tenant stays billed for requeued work and the next grant goes to the
// bulk tenant — the priority inversion.
func TestLeaseExpiryRefundPreventsPriorityInversion(t *testing.T) {
	registerWireSweep("dist-test-inversion", 40, 0)
	reg := mustRegistry(t,
		&tenant.Tenant{Name: "alpha", Token: "tok-alpha", Class: tenant.High},
		&tenant.Tenant{Name: "beta", Token: "tok-beta", Class: tenant.Bulk},
	)
	tc := newCluster(t, Config{Tenants: reg, LocalShards: -1, LeaseTTL: 100 * time.Millisecond})
	clA, clB := tc.authedClient("tok-alpha"), tc.authedClient("tok-beta")
	ctx := context.Background()
	stA, err := clA.Submit(ctx, JobRequest{Scenario: "dist-test-inversion", Opts: WireOptions{Frames: 1}})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := clB.Submit(ctx, JobRequest{Scenario: "dist-test-inversion", Opts: WireOptions{Frames: 2}})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, clA, stA.ID)
	waitRunning(t, clB, stB.ID)

	// Alpha (submitted first) wins the vt tie and takes the first
	// lease; the fake worker then vanishes without heartbeating.
	l, ok := tc.takeLease(t, "tok-alpha", "w-dead")
	if !ok {
		t.Fatal("no lease granted")
	}
	if l.JobID != stA.ID {
		t.Fatalf("first lease went to %s, want alpha's %s", l.JobID, stA.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := tc.scrapeMetrics(t, "tok-alpha"); m["gtw_leases_expired_total"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Refunded, alpha is back at beta's virtual time and wins the
	// FIFO tie again. Without the refund this grant goes to beta.
	l2, ok := tc.takeLease(t, "tok-alpha", "w-live")
	if !ok {
		t.Fatal("no lease granted after expiry")
	}
	if l2.JobID != stA.ID {
		t.Errorf("post-expiry lease went to %s, want alpha's %s (priority inversion)", l2.JobID, stA.ID)
	}
}

// A tenant's MaxInFlight caps its concurrently leased points: once an
// outstanding lease reaches the cap, further asks are refused until
// the lease retires.
func TestMaxInFlightCapsLeasedPoints(t *testing.T) {
	registerWireSweep("dist-test-capped", 40, 0)
	reg := mustRegistry(t,
		&tenant.Tenant{Name: "alpha", Token: "tok-alpha", Class: tenant.Normal, MaxInFlight: 6},
	)
	tc := newCluster(t, Config{Tenants: reg, LocalShards: -1})
	cl := tc.authedClient("tok-alpha")
	st, err := cl.Submit(context.Background(), JobRequest{Scenario: "dist-test-capped"})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, cl, st.ID)

	l, ok := tc.takeLease(t, "tok-alpha", "w-0")
	if !ok {
		t.Fatal("no first lease")
	}
	if l.Hi-l.Lo < 6 {
		t.Skipf("first lease only %d points; cap not reached", l.Hi-l.Lo)
	}
	if _, ok := tc.takeLease(t, "tok-alpha", "w-1"); ok {
		t.Errorf("lease granted past MaxInFlight=6 with %d points outstanding", l.Hi-l.Lo)
	}
}

// The metrics endpoint and the status snapshot surface the control
// plane's accounting: lease and point counters move with a real run,
// and the per-tenant block attributes the work.
func TestMetricsAndStatusSurfaceTenantCounters(t *testing.T) {
	registerWireSweep("dist-test-metrics", 16, 5*time.Millisecond)
	tc := newCluster(t, Config{LeaseTTL: 5 * time.Second})
	tc.startWorker(t, NewWorker(""))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := runJob(ctx, tc.cl, JobRequest{Scenario: "dist-test-metrics"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != JobDone {
		t.Fatalf("job: %s (%s)", st.Status, st.Error)
	}

	m := tc.scrapeMetrics(t, "")
	if m["gtw_leases_granted_total"] < 1 {
		t.Errorf("gtw_leases_granted_total = %v, want >= 1", m["gtw_leases_granted_total"])
	}
	run := m[`gtw_points_run_total{tenant="default"}`]
	if run != 16 {
		t.Errorf(`gtw_points_run_total{tenant="default"} = %v, want 16`, run)
	}
	if m["gtw_leases_expired_total"] != 0 {
		t.Errorf("gtw_leases_expired_total = %v, want 0", m["gtw_leases_expired_total"])
	}
	if m["gtw_store_points"] < 16 {
		t.Errorf("gtw_store_points = %v, want >= 16", m["gtw_store_points"])
	}
	if _, ok := m[`gtw_jobs_completed_total{status="done"}`]; !ok {
		t.Errorf("gtw_jobs_completed_total{status=done} missing")
	}

	status, err := tc.cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(status.Tenants) != 1 || status.Tenants[0].Name != "default" {
		t.Fatalf("status tenants = %+v, want the single default tenant", status.Tenants)
	}
	ts := status.Tenants[0]
	if ts.PointsRun != 16 {
		t.Errorf("default tenant points_run = %d, want 16", ts.PointsRun)
	}
	if ts.JobsSubmitted < 1 {
		t.Errorf("default tenant jobs_submitted = %d, want >= 1", ts.JobsSubmitted)
	}
	if ts.StoreBytes <= 0 {
		t.Errorf("default tenant store_bytes = %d, want > 0", ts.StoreBytes)
	}
}
