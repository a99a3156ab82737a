package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/persist"
	"repro/internal/tcpsim"
	"repro/internal/tenant"
)

// The fleet configuration every dist workload runs on: what gtwd
// -data-dir -tenants -local-shards -1 plus two gtwworkers amount to,
// with the 2 ms idle poll dist/fleet.go uses on loopback. Values left
// at zero are the coordinator's and the journal's own defaults, which
// fleetConfig spells out for the host block.
const (
	fleetWorkers = 2
	fleetPoll    = 2 * time.Millisecond
	clientToken  = "bench-client-token"
	workerToken  = "bench-worker-token"
)

func fleetConfig() map[string]any {
	return map[string]any{
		"workers": fleetWorkers, "local_shards": -1, "poll_ms": fleetPoll.Milliseconds(),
		"lease_ttl_s": 10, "store_cap_points": 4096, "max_jobs": 4, "retain_jobs": 256,
		"snapshot_every_s": 60, "snapshot_bytes": 8 << 20, "tenants": 2, "clients": 1,
		"worker_streaming": "one POST per point (BatchWindow 0)",
	}
}

const (
	gridPoints = 64
	gridBytes  = 1 << 20
)

// bench-grid is the many-cheap-points job of the dist workloads, in the
// style of benchkit's bench-sweep: every point is one short TCP
// transfer across the simulated backbone, so leasing, the wire, the
// journal and the store dominate the job, not the simulation. Frames
// labels the grid (and so enters every point's key): a fresh Frames is
// a grid no earlier job computed.
func init() {
	vals := make([]any, gridPoints)
	for i := range vals {
		vals[i] = i
	}
	core.MustRegister(core.NewSweep("bench-grid",
		"bench: 64 one-MiB TCP transfers ws-juelich -> ws-gmd",
		[]core.Axis{{Name: "i", Values: vals}},
		func(ctx context.Context, tb *core.Testbed, opts core.Options, pt core.Point) (any, error) {
			i := pt.Coord(0).(int)
			res, err := tb.TCPTransfer(core.HostWSJuelich, core.HostWSGMD, gridBytes+int64(i)<<10, tcpsim.Config{})
			if err != nil {
				return nil, err
			}
			return core.Figure1Row{
				Path: fmt.Sprintf("grid %d point %d", opts.Frames, i),
				Mbps: res.ThroughputBps / 1e6, Note: "bench-grid",
			}, nil
		},
		func(opts core.Options, results []any) (core.Report, error) {
			rep := &core.Figure1Report{}
			for _, r := range results {
				rep.Rows = append(rep.Rows, r.(core.Figure1Row))
			}
			return rep, nil
		}).WirePoint(core.Figure1Row{}).PointDeps(core.OptWAN, core.OptExtensions, core.OptFrames))
}

// fleet is a loopback coordinator with its journal, two in-process
// workers and one client, all talking real HTTP.
type fleet struct {
	store  persist.Store
	coord  *dist.Coordinator
	srv    *http.Server
	tr     *http.Transport
	client *dist.Client // the one closed-loop tenant
	mon    *dist.Client // the operator's scraper (gtwtop, Prometheus)
	rt     *rtStats     // nil when untraced
	// clientRT is the client's RoundTripper in a traced run: run tells it
	// which span the next round trips belong to.
	clientRT *timingRT
	waitMS   []float64 // per job: submit acknowledged -> terminal status in hand
	// resubmitted lists the jobs that came back failed and were
	// submitted again (see run).
	resubmitted []string

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
}

// startFleet opens (or recovers) the journal in dir and brings the
// fleet up; it returns once both workers have registered. dir == ""
// runs on persist.Mem instead — the comparison side of
// persist.disk_over_mem_x. A non-nil rec puts a timing RoundTripper on
// every HTTP client of the fleet.
func startFleet(dir string, rec *recorder) (*fleet, error) {
	f := &fleet{tr: &http.Transport{MaxIdleConnsPerHost: 8}}
	if dir == "" {
		f.store = persist.NewMem()
	} else {
		disk, err := persist.Open(dir, persist.DiskOptions{})
		if err != nil {
			return nil, err
		}
		f.store = disk
	}
	reg, err := tenant.NewRegistry([]*tenant.Tenant{
		{Name: "bench", Token: clientToken, Class: tenant.High},
		{Name: "ops", Token: workerToken, Class: tenant.Bulk},
	})
	if err != nil {
		return nil, err
	}
	f.coord = dist.New(dist.Config{Store: f.store, Tenants: reg, LocalShards: -1, Poll: fleetPoll})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.coord.Close()
		f.store.Close()
		return nil, err
	}
	f.srv = &http.Server{Handler: f.coord.Handler()}
	go func() { _ = f.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	if rec != nil {
		f.rt = newRTStats()
	}
	httpClient := func(lane int) *http.Client {
		if rec == nil {
			return &http.Client{Transport: f.tr, Timeout: 30 * time.Second}
		}
		rt := &timingRT{next: f.tr, rec: rec, stats: f.rt, lane: lane, parent: -1, hold: -1}
		if lane == laneClient {
			f.clientRT = rt
		}
		return &http.Client{Transport: rt, Timeout: 30 * time.Second}
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.stopWorkers = cancel
	for i := 1; i <= fleetWorkers; i++ {
		w := dist.NewWorker(base)
		w.ID = fmt.Sprintf("bench-w%d", i) // sticky across the dist-hit restart
		w.Token = workerToken
		w.Poll = fleetPoll
		w.Client = httpClient(i)
		f.workers.Add(1)
		go func() {
			defer f.workers.Done()
			_ = w.Run(ctx)
		}()
	}
	f.client = &dist.Client{Base: base, Token: clientToken, HTTP: httpClient(laneClient)}
	f.mon = &dist.Client{Base: base, Token: workerToken, HTTP: httpClient(laneScrape)}
	for deadline := time.Now().Add(10 * time.Second); ; {
		st, err := f.mon.Status(ctx)
		if err == nil && len(st.Workers) >= fleetWorkers {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("fleet: workers never registered (last status error: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the fleet down in the order gtwd does: workers, HTTP
// drain, coordinator (which journals interrupted jobs), then the
// journal's final snapshot — so nothing leaks into the next child and a
// reopen of the same directory sees every record. The clients drop
// their idle connections first: one the transport dialled but never
// used would otherwise hold Shutdown for net/http's five-second grace.
func (f *fleet) stop() error {
	f.stopWorkers()
	f.workers.Wait()
	f.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	f.coord.Close()
	return errors.Join(err, f.store.Close())
}

// run is one closed-loop request, the way a tenant who wants the report
// makes it: submit, wait on the event stream, and if the job comes back
// failed, submit it once more. again reports that second submission,
// which is served the points the first one left in the store.
//
// The resubmission is there because the coordinator does fail a job now
// and then through no fault of the request: core.SweepRun.Deliver claims
// a lease — which can close the dispatcher's Done — before it records
// the lease's results, so the job goroutine can merge first and report
// "point never evaluated (dispatch abandoned)". On the reference host
// that is about one cold job in 40 000 (more under load; every few jobs
// under -race). A benchmark whose units fail at random cannot gate
// anything, so the client absorbs it the way a client would — and every
// resubmission is counted, listed on the detail line and reported as
// dist.resubmit_share, which a fix of that ordering must bring to 0. A
// job that fails twice fails its unit.
func (f *fleet) run(ctx context.Context, rec *recorder, parent, unit int, req dist.JobRequest) (st *dist.JobStatus, again bool, err error) {
	st, err = f.attempt(ctx, rec, parent, unit, req)
	if err != nil || st.Status != dist.JobFailed {
		return st, false, err
	}
	f.resubmitted = append(f.resubmitted, fmt.Sprintf("%s (%s): %s", st.ID, st.Scenario, st.Error))
	st, err = f.attempt(ctx, rec, parent, unit, req)
	return st, true, err
}

// attempt is one submit + wait. parent and unit place its spans.
func (f *fleet) attempt(ctx context.Context, rec *recorder, parent, unit int, req dist.JobRequest) (*dist.JobStatus, error) {
	id := rec.begin("submit", layerDist, laneClient, parent, unit)
	f.setCurrent(id)
	st, err := f.client.Submit(ctx, req)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if st.Status == dist.JobDone || st.Status == dist.JobFailed {
		return st, nil
	}
	id = rec.begin("wait", layerDist, laneClient, parent, unit)
	rec.bindJob(st.ID, id)
	f.setCurrent(id)
	t0 := time.Now()
	st, err = f.client.WaitStream(ctx, st.ID, nil)
	f.waitMS = append(f.waitMS, ms(time.Since(t0)))
	rec.end(id)
	return st, err
}

// setCurrent tells the client's RoundTripper which span its next round
// trips belong to. The client is one goroutine and http.Client calls
// RoundTrip on it, so a plain field does.
func (f *fleet) setCurrent(id int) {
	if f.clientRT != nil {
		f.clientRT.parent = id
	}
}

// scrape fetches /v1/metrics the way a Prometheus scraper would and
// returns the text.
func (f *fleet) scrape(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.mon.Base+"/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("Authorization", "Bearer "+f.mon.Token)
	resp, err := f.mon.HTTP.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET /v1/metrics: %s", resp.Status)
	}
	return string(b), err
}

// counters is the coordinator state the dist per-layer metrics are
// deltas of.
type counters struct {
	hits, misses, evictions, leases int64
}

func (f *fleet) counters(ctx context.Context) (counters, error) {
	st, err := f.mon.Status(ctx)
	if err != nil {
		return counters{}, err
	}
	c := counters{hits: st.StoreHits, misses: st.StoreMisses, evictions: st.StoreEvictions}
	text, err := f.scrape(ctx)
	if err != nil {
		return c, err
	}
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "gtw_leases_granted_total "); ok {
			_, err = fmt.Sscan(v, &c.leases)
		}
	}
	return c, err
}

// monitor scrapes /v1/status and /v1/metrics once a second until ctx
// ends, as gtwtop and a Prometheus server would: both handlers take
// the coordinator mutex, so monitoring is part of the traced picture.
func (f *fleet) monitor(ctx context.Context) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_, _ = f.mon.Status(ctx)
			_, _ = f.scrape(ctx)
		}
	}
}

// ------------------------------------------------- timing RoundTripper --

// rtPath is what the RoundTripper saw on one protocol path.
type rtPath struct {
	ms    []float64 // one per round trip
	empty int64     // of those, 204 No Content
	bytes int64     // request + response bodies
}

type rtStats struct {
	mu    sync.Mutex
	paths map[string]*rtPath
}

func newRTStats() *rtStats { return &rtStats{paths: make(map[string]*rtPath)} }

// reset drops what was seen so far (set-up and warm-up traffic).
func (s *rtStats) reset() {
	s.mu.Lock()
	s.paths = make(map[string]*rtPath)
	s.mu.Unlock()
}

func (s *rtStats) observe(path string, d time.Duration, bytes int64, status int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.paths[path]
	if p == nil {
		p = &rtPath{}
		s.paths[path] = p
	}
	p.bytes += bytes
	p.ms = append(p.ms, ms(d))
	if status == http.StatusNoContent {
		p.empty++
	}
}

// pathName maps a request to its protocol path.
func pathName(r *http.Request) string {
	p := strings.TrimPrefix(r.URL.Path, "/v1/")
	switch {
	case p == "jobs":
		return "submit"
	case strings.HasPrefix(p, "jobs/"):
		return "fetch"
	case strings.HasPrefix(p, "workers/"):
		return strings.TrimPrefix(p, "workers/")
	}
	return p // status, metrics, events
}

// timingRT times every HTTP round trip of one fleet member from
// request to the last body byte, counts its bytes, and records it as a
// span. On a worker lane it also derives the one span the protocol
// implies but never sends: between a granted lease and its result
// upload the worker is evaluating points, so that interval — minus the
// point uploads inside it — is core time on that worker.
type timingRT struct {
	next  http.RoundTripper
	rec   *recorder
	stats *rtStats
	lane  int

	// parent is, on the client's lane, the span in progress there.
	parent int

	// Worker loops are sequential, so the lease a worker holds is
	// plain state of its RoundTripper.
	hold    int    // open "eval" span, -1 when idle
	holdJob string // job of the lease in hand
}

func (t *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	path := pathName(req)
	if path == "events" {
		// The stream lives as long as the wait span around it.
		return t.next.RoundTrip(req)
	}
	s := span{Name: path, Layer: layerDist, Lane: t.lane, Parent: -1, Unit: -1}
	switch {
	case t.lane == laneClient:
		s.Parent = t.parent
	case path == "result":
		t.rec.end(t.hold)
		s.job, t.hold, t.holdJob = t.holdJob, -1, ""
	case path == "points":
		s.Parent = t.hold
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	s.Start = t.rec.at(start)
	resp.Body = &timedBody{ReadCloser: resp.Body, keep: path == "lease" && resp.StatusCode == http.StatusOK, done: func(n int64, body []byte) {
		end := time.Now()
		t.stats.observe(path, end.Sub(start), max(req.ContentLength, 0)+n, resp.StatusCode)
		if body != nil {
			var l dist.LeaseReply
			if json.Unmarshal(body, &l) == nil {
				s.job, t.holdJob = l.JobID, l.JobID
			}
		}
		s.End = t.rec.at(end)
		t.rec.add(s)
		if body != nil {
			t.hold = t.rec.add(span{Name: "eval", Layer: layerCore, Lane: t.lane, Start: s.End, End: -1, Parent: -1, Unit: -1, job: t.holdJob})
		}
	}}
	return resp, nil
}

// timedBody reports how many bytes a response carried — and, for a
// lease grant, the bytes themselves — when the caller closes it.
type timedBody struct {
	io.ReadCloser
	n    int64
	keep bool
	buf  []byte
	done func(n int64, body []byte)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if b.keep {
		b.buf = append(b.buf, p[:n]...)
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done != nil {
		b.done(b.n, b.buf)
		b.done = nil
	}
	return err
}

// scratchJournal is the os.MkdirTemp pattern of the journal directories
// a run makes under its output directory and removes when it ends; the
// benchmark writes nowhere else.
const scratchJournal = "data-*"
