package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/tenant"
)

// Config tunes a Coordinator.
type Config struct {
	// LeaseTTL is how long a worker may hold a lease without
	// heartbeating before its points are requeued (default 10s).
	LeaseTTL time.Duration
	// Poll is the back-off handed to workers for after an empty or
	// failed lease ask (default 200ms); idle workers' asks are parked.
	Poll time.Duration
	// LocalShards is the number of in-process shards the coordinator
	// itself contributes to every distributed job, stealing from the
	// same queue as the remote workers. 0 defaults to 1 (so a
	// coordinator with no workers still makes progress); negative
	// disables local evaluation entirely (pure remote execution).
	LocalShards int
	// CacheSize bounds the content-addressed point store (finished
	// grid points, LRU-evicted; default 4096).
	CacheSize int
	// MaxJobs bounds concurrently running jobs (default 4); further
	// submissions queue FIFO.
	MaxJobs int
	// RetainJobs bounds how many finished (done/failed) jobs stay
	// pollable (default 256). Oldest finished jobs are pruned first;
	// queued and running jobs are never pruned, so coordinator memory
	// stays bounded however many clients submit.
	RetainJobs int
	// CacheBytes bounds the point store's total wire bytes (0: the
	// entry-count bound alone applies).
	CacheBytes int64
	// CacheEntryBytes caps one stored point's wire bytes; larger results
	// are not cached at all (0: no per-entry cap).
	CacheEntryBytes int
	// Store receives every coordinator state transition — job lifecycle,
	// finished points, worker stats — and provides the recovered state at
	// startup: finished points are served from the store again, jobs that
	// were queued or running resume, and reconnecting workers keep their
	// sticky IDs and throughput EWMAs. Nil defaults to a fresh in-memory
	// store (persist.NewMem()), which journals identically but recovers
	// nothing; hand a persist.Disk (gtwd -data-dir) for crash durability,
	// or share one Mem across two Coordinators to test recovery.
	Store persist.Store
	// Tenants, when set, turns on multi-tenant operation: every endpoint
	// except /healthz requires a token from this registry, usage is
	// attributed to the authenticated tenant, and the lease queue is
	// arbitrated by weighted fair share across tenants. Nil serves every
	// request as the anonymous default tenant (the pre-tenancy behavior).
	Tenants *tenant.Registry
	// Metrics, when set, is the obs registry the coordinator instruments
	// itself into (and /v1/metrics renders). Nil allocates a private one,
	// so /v1/metrics works either way.
	Metrics *obs.Registry
	// Logf, when set, receives coordinator events (lease expiries,
	// job transitions). Nil discards.
	Logf func(format string, args ...any)
}

func (cfg Config) withDefaults() Config {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	if cfg.LocalShards == 0 {
		cfg.LocalShards = 1
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 4096
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 4
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 256
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

// job is one submitted scenario run.
type job struct {
	id       string
	scenario string
	wopts    WireOptions
	opts     core.Options
	status   string
	cached   bool
	start    time.Time
	elapsed  time.Duration

	// tenant is the submitter (never nil: the anonymous default tenant
	// when auth is off). admitted marks a queued job that already holds
	// an execution slot, so the fair-admission scan skips it.
	tenant   *tenant.Tenant
	admitted bool
	// mRun/mHit/mStreamed are this tenant's point counters, resolved
	// from the metric vecs once at job creation so the per-point hot
	// paths increment pre-resolved atomics (zero allocations).
	mRun, mHit, mStreamed *obs.Counter
	// lastEvent throttles "points" progress events (unix nanos of the
	// last publish, CAS-guarded).
	lastEvent atomic.Int64

	// run is non-nil while a distributable plan is executing: the
	// lease handlers dispatch from run.Queue(). sw is the plan's
	// executable grid (the scenario itself, or its one-point wrapper).
	run *core.SweepRun
	sw  *core.Sweep
	// keys holds each grid point's content address.
	keys []string

	pointsTotal int
	pointsDone  int
	// pointHits counts grid points served from the store — at submit
	// time and at lease-grant pickup. Atomic because grant-time pickups
	// happen inside the queue's lease path, where c.mu is held by the
	// caller (handleLease) or not held at all (local shards).
	pointHits atomic.Int64

	report  []byte
	text    string
	timings []core.ShardTiming
	errStr  string
	done    chan struct{}
}

// leaseKey identifies an outstanding remote lease.
type leaseKey struct {
	jobID string
	seq   uint64
}

// leaseRec tracks a lease checked out by a remote worker. streamed
// marks the points the worker already uploaded mid-lease (index k
// covers grid point lease.Lo+k): if the lease expires, only the
// unstreamed remainder is requeued.
type leaseRec struct {
	job      *job
	lease    core.Lease
	expires  time.Time
	streamed []bool
}

// workerState is the coordinator's record of a sticky worker ID.
type workerState struct {
	id       string
	lastSeen time.Time
	points   int
	parked   int // its lease asks parked right now: > 0 reads as seen now
}

// Coordinator owns the job queue, the result cache, the worker
// registry and the outstanding-lease table, and serves the protocol
// over HTTP. Create with New, mount via Handler, stop with Close.
type Coordinator struct {
	cfg Config
	mux *http.ServeMux

	mu      sync.Mutex
	jobs    map[string]*job
	order   []*job // submit order, for lease scans and status
	workers map[string]*workerState
	leases  map[leaseKey]*leaseRec
	rates   map[string]float64 // cross-job worker throughput EWMAs
	jobSeq  int

	// store is the content-addressed point store; it has its own lock
	// and is safe to touch without c.mu.
	store *pointStore
	// pstore is the persistence journal (never nil: defaults to a fresh
	// persist.Mem). Implementations lock internally; safe without c.mu.
	pstore persist.Store

	// tenants is the auth registry (nil: auth off); defTenant serves
	// unauthenticated coordinators. sched arbitrates the lease queue and
	// job admission across tenants; inflight tracks each tenant's
	// currently leased points (entries persist at zero so the gauge sync
	// sees the drop). All under c.mu except the scheduler, which locks
	// internally.
	tenants   *tenant.Registry
	defTenant *tenant.Tenant
	sched     *tenant.Scheduler
	inflight  map[string]int

	met    *metrics
	events *eventHub

	// wake is closed (and replaced) under c.mu whenever work may have
	// become grantable; a parked lease ask waits on the channel it read
	// under the same hold of c.mu as its failed scan, so none is missed.
	// released is closed by ReleaseParked.
	wake        chan struct{}
	released    chan struct{}
	releaseOnce sync.Once

	// Fair admission: running counts jobs holding one of the MaxJobs
	// execution slots; admitCond (on c.mu) wakes queued jobs when a slot
	// frees or shutdown starts.
	running   int
	admitCond *sync.Cond

	wg      sync.WaitGroup // in-flight execute goroutines
	base    context.Context
	baseCxl context.CancelFunc
}

// New builds a coordinator, recovers any state its Store journaled in a
// previous life (finished points, finished job reports, worker stats,
// and interrupted jobs — which are re-enqueued and resume with their
// already-streamed points served from the store), and starts the lease
// reaper.
func New(cfg Config) *Coordinator {
	c := &Coordinator{
		cfg:      cfg.withDefaults(),
		jobs:     make(map[string]*job),
		workers:  make(map[string]*workerState),
		leases:   make(map[leaseKey]*leaseRec),
		rates:    make(map[string]float64),
		inflight: make(map[string]int),
		wake:     make(chan struct{}),
		released: make(chan struct{}),
	}
	c.pstore = c.cfg.Store
	if c.pstore == nil {
		c.pstore = persist.NewMem()
	}
	c.admitCond = sync.NewCond(&c.mu)
	c.tenants = c.cfg.Tenants
	c.defTenant = tenant.DefaultTenant()
	c.sched = tenant.NewScheduler()
	c.sched.SetWeight(c.defTenant.Name, c.defTenant.Weight())
	if c.tenants != nil {
		for _, t := range c.tenants.Tenants() {
			c.sched.SetWeight(t.Name, t.Weight())
		}
	}
	c.met = newMetrics(c.cfg.Metrics)
	c.events = newEventHub()
	c.store = newPointStore(c.cfg.CacheSize, c.cfg.CacheBytes, c.cfg.CacheEntryBytes)
	// Every accepted point and every eviction is journaled, so the
	// durable image tracks the store's residency exactly.
	c.store.onPut = func(key string, val []byte) { c.pstore.PutPoint(key, val) }
	c.store.onEvict = func(key string) { c.pstore.DeletePoint(key) }
	resume := c.recoverState()
	c.base, c.baseCxl = context.WithCancel(context.Background())
	// Shutdown must wake jobs parked in admit, or Close would hang on
	// c.wg behind waiters nobody will ever signal.
	context.AfterFunc(c.base, func() {
		c.mu.Lock()
		c.admitCond.Broadcast()
		c.mu.Unlock()
	})
	// drop adapts tenant-agnostic handlers to the authed signature.
	drop := func(h http.HandlerFunc) func(http.ResponseWriter, *http.Request, *tenant.Tenant) {
		return func(w http.ResponseWriter, r *http.Request, _ *tenant.Tenant) { h(w, r) }
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /v1/jobs", c.authed(c.handleSubmit))
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.authed(drop(c.handleJob)))
	c.mux.HandleFunc("GET /v1/status", c.authed(drop(c.handleStatus)))
	c.mux.HandleFunc("GET /v1/metrics", c.authed(drop(c.handleMetrics)))
	c.mux.HandleFunc("GET /v1/events", c.authed(drop(c.handleEvents)))
	c.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	c.mux.HandleFunc("POST /v1/workers/register", c.authed(c.handleRegister))
	c.mux.HandleFunc("POST /v1/workers/lease", c.authed(drop(c.handleLease)))
	// A heartbeat is a points upload with no points — same request
	// fields, same {"ok":…} reply, same lease extension.
	c.mux.HandleFunc("POST /v1/workers/heartbeat", c.authed(drop(c.handlePoints)))
	c.mux.HandleFunc("POST /v1/workers/points", c.authed(drop(c.handlePoints)))
	c.mux.HandleFunc("POST /v1/workers/result", c.authed(drop(c.handleResult)))
	go c.reap()
	for _, j := range resume {
		c.cfg.Logf("dist: resuming %s (%s) recovered from the store", j.id, j.scenario)
		c.startJob(j)
	}
	return c
}

// recoverState seeds the coordinator from the journal's last image.
// Called from New before any handler runs, so no locking. Returns the
// non-terminal jobs to re-enqueue.
func (c *Coordinator) recoverState() []*job {
	st := c.pstore.Load()
	// Oldest-first seeding reproduces the store's LRU order (each seed
	// pushes to the front); a shrunken budget evicts — and journals —
	// the oldest overflow.
	for _, p := range st.Points {
		c.store.seed(p.Key, p.Val)
	}
	now := time.Now()
	for _, w := range st.Workers {
		c.workers[w.ID] = &workerState{id: w.ID, lastSeen: now, points: w.Points}
		if w.RatePPS > 0 {
			c.rates[w.ID] = w.RatePPS
		}
	}
	var resume []*job
	for _, jr := range st.Jobs {
		var wopts WireOptions
		if len(jr.Opts) > 0 {
			_ = json.Unmarshal(jr.Opts, &wopts)
		}
		j := &job{
			id: jr.ID, scenario: jr.Scenario, wopts: wopts, opts: wopts.Options(),
			status: jr.Status, cached: jr.Cached, start: now,
			elapsed:     time.Duration(jr.ElapsedMS) * time.Millisecond,
			pointsTotal: jr.PointsTotal, pointsDone: jr.PointsDone,
			report: jr.Report, text: jr.Text, errStr: jr.Error,
			done: make(chan struct{}),
		}
		// Re-resolve the journaled tenant name against the current
		// registry; a tenant removed from the config (or a journal from a
		// pre-tenancy build) degrades to the anonymous default.
		t := c.defTenant
		if c.tenants != nil && jr.Tenant != "" {
			if rt := c.tenants.ByName(jr.Tenant); rt != nil {
				t = rt
			}
		}
		c.bindTenant(j, t)
		j.pointHits.Store(int64(jr.PointHits))
		if len(jr.Timings) > 0 {
			_ = json.Unmarshal(jr.Timings, &j.timings)
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(jr.ID, "job-")); err == nil && n > c.jobSeq {
			c.jobSeq = n
		}
		switch jr.Status {
		case JobDone, JobFailed:
			close(j.done)
		default:
			// Queued or running at the crash: re-run from the top. The
			// points it streamed before dying are in the store, so the
			// resumed execution prefills them and re-leases only the
			// unstreamed tail.
			j.status = JobQueued
			j.pointsDone, j.report, j.text, j.errStr = 0, nil, "", ""
			j.pointHits.Store(0)
			resume = append(resume, j)
		}
		c.jobs[j.id] = j
		c.order = append(c.order, j)
	}
	return resume
}

// startJob launches a job's execute goroutine, tracked so Close can
// wait for in-flight jobs to wind down before the caller snapshots and
// closes the persistence store.
func (c *Coordinator) startJob(j *job) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.execute(j)
	}()
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// bindTenant attributes a job to its tenant and resolves the tenant's
// point counters once, so every per-point increment afterwards is a
// pre-resolved atomic add.
func (c *Coordinator) bindTenant(j *job, t *tenant.Tenant) {
	j.tenant = t
	j.mRun = c.met.pointsRun.With(t.Name)
	j.mHit = c.met.pointsHit.With(t.Name)
	j.mStreamed = c.met.pointsStreamed.With(t.Name)
}

// authed gates a handler behind token authentication. With no registry
// configured every request proceeds as the anonymous default tenant;
// with one, a missing or unknown token is a 401 (counted and audited,
// never attributed — there is no tenant to attribute it to).
func (c *Coordinator) authed(h func(http.ResponseWriter, *http.Request, *tenant.Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := c.defTenant
		if c.tenants != nil {
			var ok bool
			t, ok = c.tenants.Authenticate(r.Header.Get("Authorization"))
			if !ok {
				c.met.authFailures.Inc()
				c.audit("", "auth-reject", "", r.Method+" "+r.URL.Path)
				w.Header().Set("WWW-Authenticate", `Bearer realm="gtwd"`)
				http.Error(w, "unauthorized", http.StatusUnauthorized)
				return
			}
		}
		h(w, r, t)
	}
}

// audit appends one record to the append-only audit trail.
func (c *Coordinator) audit(tenantName, action, jobID, detail string) {
	c.pstore.AppendAudit(persist.AuditRecord{
		TimeMS: time.Now().UnixMilli(),
		Tenant: tenantName, Action: action, JobID: jobID, Detail: detail,
	})
}

// jobEvent publishes a job lifecycle transition.
func (c *Coordinator) jobEvent(j *job, status, errStr string) {
	c.events.publish(Event{
		Type: "job", Job: j.id, Scenario: j.scenario,
		Tenant: j.tenant.Name, Status: status, Error: errStr,
		PointsDone: j.pointsDone, PointsTotal: j.pointsTotal,
	})
}

// progressEvery throttles "points" progress events per job.
const progressEvery = 100 * time.Millisecond

// maybeProgress publishes a coalesced point-progress event. Called from
// the per-point hot path (run.OnPoint), so it bails on an atomic load
// when nobody is subscribed and CAS-throttles to one event per
// progressEvery per job. It deliberately reads progress from the run
// pointer it is handed — never j.run, which is guarded by c.mu.
func (c *Coordinator) maybeProgress(j *job, run *core.SweepRun, total int) {
	if c.events.subscribers() == 0 {
		return
	}
	now := time.Now().UnixNano()
	last := j.lastEvent.Load()
	if now-last < int64(progressEvery) || !j.lastEvent.CompareAndSwap(last, now) {
		return
	}
	done, _ := run.Progress()
	c.events.publish(Event{
		Type: "points", Job: j.id, Scenario: j.scenario, Tenant: j.tenant.Name,
		Status: JobRunning, PointsDone: done, PointsTotal: total,
	})
}

// admit blocks until this job is granted one of the MaxJobs execution
// slots — or shutdown begins, in which case it returns the cause. Slots
// go to the queued job of the tenant the fair-share scheduler picks
// (FIFO within a tenant), not submission order: with MaxJobs saturated
// by one tenant's backlog, another tenant's first job is the next
// admission, not the backlog's tail.
func (c *Coordinator) admit(j *job) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if err := c.base.Err(); err != nil {
			return err
		}
		if c.running < c.cfg.MaxJobs && c.nextAdmitLocked() == j {
			c.running++
			j.admitted = true
			// Other waiters re-evaluate: a second free slot may now go
			// to the next pick.
			c.admitCond.Broadcast()
			return nil
		}
		c.admitCond.Wait()
	}
}

// nextAdmitLocked returns the queued job the next free slot should go
// to: the oldest job of the least-virtual-time tenant among those with
// queued work.
func (c *Coordinator) nextAdmitLocked() *job {
	var names []string
	oldest := make(map[string]*job)
	for _, j := range c.order {
		if j.status != JobQueued || j.admitted {
			continue
		}
		if _, seen := oldest[j.tenant.Name]; !seen {
			oldest[j.tenant.Name] = j
			names = append(names, j.tenant.Name)
		}
	}
	if len(names) == 0 {
		return nil
	}
	return oldest[c.sched.Pick(names)]
}

// release returns an execution slot and wakes admission waiters.
func (c *Coordinator) release() {
	c.mu.Lock()
	c.running--
	c.admitCond.Broadcast()
	c.mu.Unlock()
}

// Close cancels running jobs, stops the reaper, releases what is parked
// and waits for in-flight job goroutines to finish journaling —
// interrupted jobs are recorded as queued, so a restart on the same
// store resumes them. The caller owns the persistence store's lifetime
// (close it after Close returns: the final snapshot has every record).
func (c *Coordinator) Close() {
	c.baseCxl()
	c.ReleaseParked()
	c.wg.Wait()
}

// ReleaseParked answers every request the coordinator is holding —
// lease asks with 204, job waits with the current status, /v1/events
// streams by closing them — and holds none from then on. Shutdown of an
// http.Server waits for active requests: give it this (RegisterOnShutdown).
func (c *Coordinator) ReleaseParked() {
	c.releaseOnce.Do(func() {
		close(c.released)
		c.events.dropAll()
	})
}

// wakeLocked lets every parked lease ask re-run its scan.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// parkUntil is when a request that asked to be held for waitMS gets its
// answer regardless: that long from now, a minute at most.
func parkUntil(waitMS int64) time.Time {
	return time.Now().Add(min(time.Duration(waitMS)*time.Millisecond, time.Minute))
}

// hold parks a request until ch fires (reported), the deadline passes,
// its client goes away, or ReleaseParked.
func (c *Coordinator) hold(r *http.Request, deadline time.Time, ch <-chan struct{}) bool {
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
	case <-r.Context().Done():
	case <-c.released:
	}
	return false
}

// reap requeues leases whose workers stopped heartbeating, so their
// points are re-run by whoever asks next (another worker or a local
// shard).
func (c *Coordinator) reap() {
	t := time.NewTicker(max(c.cfg.LeaseTTL/4, 10*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-c.base.Done():
			return
		case now := <-t.C:
			c.mu.Lock()
			for k, rec := range c.leases {
				if now.Before(rec.expires) {
					continue
				}
				requeued := c.dropLeaseLocked(k, rec)
				c.met.leasesExpired.Inc()
				c.events.publish(Event{
					Type: "lease", Job: k.jobID, Tenant: rec.job.tenant.Name,
					Worker: rec.lease.Worker, Requeued: requeued,
				})
				c.cfg.Logf("dist: lease %s/%d (points [%d,%d), worker %s) expired; requeued %d unstreamed point(s)",
					k.jobID, k.seq, rec.lease.Lo, rec.lease.Hi, rec.lease.Worker, requeued)
			}
			c.mu.Unlock()
		}
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// retireLeaseLocked removes a lease from the outstanding table and
// returns its points to the tenant's in-flight budget; retiring a lease
// that is already gone is a no-op. The inflight entry stays at zero
// rather than being deleted, so the scrape-time gauge sync sees the
// drop instead of a stale last value.
func (c *Coordinator) retireLeaseLocked(k leaseKey, rec *leaseRec) {
	if c.leases[k] != rec {
		return
	}
	delete(c.leases, k)
	t, before := rec.job.tenant, c.inflight[rec.job.tenant.Name]
	after := max(before-rec.lease.Points(), 0)
	c.inflight[t.Name] = after
	if before >= t.MaxInFlight && after < t.MaxInFlight {
		c.wakeLocked() // a capped tenant (uncapped: after is never < 0) can be granted again
	}
}

// dropLeaseLocked gives up on a lease that will not complete — its
// worker stopped heartbeating, its upload was malformed, or its job
// ended first — and reports how many points that leaves unserved. The
// points the worker streamed are already delivered and stay credited;
// only the rest goes back to the job's queue, to be re-run by whoever
// asks next. That rest is refunded: it is about to be leased — and
// charged — again, and without the refund the tenant would pay twice
// and sink behind lower-priority tenants (priority inversion).
func (c *Coordinator) dropLeaseLocked(k leaseKey, rec *leaseRec) (requeued int) {
	c.retireLeaseLocked(k, rec)
	requeued = rec.lease.Points() - countTrue(rec.streamed)
	c.sched.Refund(rec.job.tenant.Name, requeued)
	if rec.job.run != nil {
		rec.job.run.Queue().RequeuePartial(rec.lease, rec.streamed)
		c.wakeLocked()
	}
	return requeued
}

// jobKey is the tenant+scenario+options identity used to share
// identical in-flight jobs. Workers/shards/dispatch are deliberately
// absent: they change only wall-clock time, never report bytes. The
// tenant prefix keeps sharing within a tenant — two tenants submitting
// the same sweep get separate jobs (honest accounting and fair-share
// billing) whose points still dedupe through the content-addressed
// store.
func jobKey(tenantName, scenario string, w WireOptions) string {
	b, _ := json.Marshal(w)
	return tenantName + "|" + scenario + "|" + string(b)
}

// Submit queues a scenario run (or shares an identical in-flight job)
// as the anonymous default tenant. There is no whole-report cache: a
// repeated submission runs through the point store, where every grid
// point hits and only the merge is recomputed — the same path that
// serves partial overlaps.
func (c *Coordinator) Submit(req JobRequest) (*JobStatus, error) {
	return c.SubmitFor(nil, req)
}

// SubmitFor queues a scenario run attributed to a tenant (nil: the
// anonymous default tenant).
func (c *Coordinator) SubmitFor(t *tenant.Tenant, req JobRequest) (*JobStatus, error) {
	if t == nil {
		t = c.defTenant
	}
	if _, ok := core.Lookup(req.Scenario); !ok {
		return nil, fmt.Errorf("dist: unknown scenario %q", req.Scenario)
	}
	key := jobKey(t.Name, req.Scenario, req.Opts)
	c.mu.Lock()
	defer c.mu.Unlock()
	// Identical job already queued or running for this tenant: share it.
	for _, j := range c.order {
		if j.status != JobDone && j.status != JobFailed && jobKey(j.tenant.Name, j.scenario, j.wopts) == key {
			st := c.statusLocked(j)
			return &st, nil
		}
	}
	j := c.newJobLocked(t, req)
	c.startJob(j)
	st := c.statusLocked(j)
	return &st, nil
}

func (c *Coordinator) newJobLocked(t *tenant.Tenant, req JobRequest) *job {
	c.jobSeq++
	j := &job{
		id:       "job-" + strconv.Itoa(c.jobSeq),
		scenario: req.Scenario,
		wopts:    req.Opts,
		opts:     req.Opts.Options(),
		status:   JobQueued,
		start:    time.Now(),
		done:     make(chan struct{}),
	}
	c.bindTenant(j, t)
	t.Usage.JobsSubmitted.Add(1)
	c.met.jobsSubmitted.With(t.Name).Inc()
	c.jobs[j.id] = j
	c.order = append(c.order, j)
	c.pstore.PutJob(c.jobRecordLocked(j))
	c.audit(t.Name, "job-submit", j.id, j.scenario)
	c.jobEvent(j, JobQueued, "")
	c.pruneJobsLocked()
	return j
}

// optsJSON marshals a job's wire options for its journal record.
func optsJSON(w WireOptions) json.RawMessage {
	b, _ := json.Marshal(w)
	return b
}

// jobRecordLocked builds the journal image of a job's current state.
func (c *Coordinator) jobRecordLocked(j *job) persist.JobRecord {
	rec := persist.JobRecord{
		ID: j.id, Scenario: j.scenario, Opts: optsJSON(j.wopts),
		Status: j.status, Error: j.errStr, Report: j.report, Text: j.text,
		ElapsedMS:   j.elapsed.Milliseconds(),
		PointsTotal: j.pointsTotal, PointsDone: j.pointsDone,
		PointHits: int(j.pointHits.Load()), Cached: j.cached,
		Tenant: j.tenant.Name,
	}
	if len(j.timings) > 0 {
		if b, err := json.Marshal(j.timings); err == nil {
			rec.Timings = b
		}
	}
	return rec
}

// pruneJobsLocked evicts the oldest finished jobs past the retention
// bound, so a long-running coordinator's memory is bounded by
// RetainJobs finished reports plus whatever is actually in flight.
// Queued and running jobs are never pruned (their leases and done
// channels are live).
func (c *Coordinator) pruneJobsLocked() {
	finished := 0
	for _, j := range c.order {
		if j.status == JobDone || j.status == JobFailed {
			finished++
		}
	}
	if finished <= c.cfg.RetainJobs {
		return
	}
	kept := c.order[:0]
	for _, j := range c.order {
		if finished > c.cfg.RetainJobs && (j.status == JobDone || j.status == JobFailed) {
			delete(c.jobs, j.id)
			c.pstore.DeleteJob(j.id)
			finished--
			continue
		}
		kept = append(kept, j)
	}
	// Drop the tail references so pruned jobs are collectable.
	for i := len(kept); i < len(c.order); i++ {
		c.order[i] = nil
	}
	c.order = kept
}

// execute runs one job to completion: every distributable plan — sweep
// grids and one-point-wrapped scenarios alike — goes through the shared
// lease queue and the point store; only sweeps without a wire codec
// fall back to a plain in-process run.
func (c *Coordinator) execute(j *job) {
	if err := c.admit(j); err != nil {
		c.finish(j, nil, err)
		return
	}
	defer c.release()
	ctx, cancel := context.WithCancel(c.base)
	defer cancel()

	// A job recovered from the store may name a scenario this build no
	// longer registers; fail it loudly instead of executing a nil plan.
	s, ok := core.Lookup(j.scenario)
	if !ok {
		c.finish(j, nil, fmt.Errorf("dist: unknown scenario %q (recovered from a different build?)", j.scenario))
		return
	}

	c.mu.Lock()
	j.status = JobRunning
	j.start = time.Now()
	plan := core.PlanFor(s)
	c.pstore.PutJob(c.jobRecordLocked(j))
	c.mu.Unlock()
	c.jobEvent(j, JobRunning, "")

	var rep core.Report
	var err error
	if plan.Distributable() {
		rep, err = c.runDistributed(ctx, j, plan)
	} else {
		rep, err = core.RunWith(ctx, j.scenario, j.opts)
	}
	c.finish(j, rep, err)
}

// runDistributed evaluates a plan's grid through the shared
// work-stealing queue: grid points already in the content-addressed
// store are prefilled (never leased), and the coordinator's local
// shards plus every polling worker lease the rest until the grid
// drains.
func (c *Coordinator) runDistributed(ctx context.Context, j *job, plan *core.Plan) (core.Report, error) {
	sw := plan.Sweep()
	points := sw.Points()
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("dist: scenario %q has an empty grid", j.scenario)
	}
	keys := make([]string, n)
	for i, pt := range points {
		keys[i] = sw.PointKey(j.opts, pt)
	}
	shards := c.cfg.LocalShards
	if shards < 0 {
		shards = 0
	}
	if shards > n {
		shards = n
	}
	c.mu.Lock()
	q := core.NewWorkStealingDispatcher(n, max(shards+len(c.workers), 1))
	// Seed the queue with what earlier jobs learned about each worker,
	// so a proven-fast worker gets large leases from its first ask.
	for w, r := range c.rates {
		q.SeedRate(w, r)
	}
	c.mu.Unlock()
	run := core.NewSweepRun(sw, j.opts, q, shards)
	// Persist each freshly computed point the moment it is recorded —
	// local shard results included — so a crash loses at most the points
	// still being evaluated. OnPoint fires outside the run's lock for
	// every freshly recorded error-free point; remotely delivered points
	// are already in the store (put on upload receipt, where they were
	// attributed), which the contains probe skips — so the accounting
	// branch below is exactly the local-shard fresh computes.
	run.OnPoint = func(i int, val any) {
		c.maybeProgress(j, run, n)
		if c.store.contains(keys[i]) {
			return
		}
		b, err := sw.EncodePoint(val)
		if err != nil {
			return
		}
		accepted, rejected := c.store.put(keys[i], b)
		if accepted {
			j.mRun.Inc()
			j.tenant.Usage.PointsRun.Add(1)
			j.tenant.Usage.StoreBytes.Add(int64(len(b)))
		}
		if rejected {
			j.tenant.Usage.StoreRejected.Add(1)
		}
	}
	// Content-addressed reuse: a point another job already computed —
	// same scenario, same coordinates, same relevant options — is
	// decoded from its stored wire bytes exactly as a fresh worker
	// upload would be, so reports assembled either way are
	// byte-identical. As the queue's skip predicate it runs over the
	// whole grid now, before anything is leased, and again over each
	// lease at grant time — where a point that landed in the store since
	// (streamed by a concurrent job with an overlapping grid) is served
	// from the store instead of being re-simulated. The grant-time call
	// comes from inside the lease path (under c.mu when handleLease is
	// the caller), so the predicate must not take c.mu itself.
	q.SetSkip(func(lo, hi int) []bool {
		mask := make([]bool, hi-lo)
		hits := 0
		for i := lo; i < hi; i++ {
			b, ok := c.store.get(keys[i])
			if !ok {
				continue
			}
			v, err := sw.DecodePoint(b)
			if err != nil {
				continue // stored under an incompatible build: treat as miss
			}
			run.Prefill(i, v)
			mask[i-lo] = true
			hits++
		}
		if hits == 0 {
			return nil
		}
		j.pointHits.Add(int64(hits))
		j.mHit.Add(int64(hits))
		j.tenant.Usage.PointsHit.Add(int64(hits))
		c.cfg.Logf("dist: %s (%s) reusing %d of points [%d,%d) from the store", j.id, j.scenario, hits, lo, hi)
		return mask
	})
	c.mu.Lock()
	j.run = run
	j.sw = sw
	j.keys = keys
	j.pointsTotal = n
	if q.Pending() > 0 { // an all-hit job wakes nobody
		c.wakeLocked()
	}
	c.mu.Unlock()

	stop := context.AfterFunc(ctx, q.Close)
	defer stop()
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			run.RunShard(ctx, s, "local-"+strconv.Itoa(s), sw.NewShardTestbed(j.opts))
		}(s)
	}
	waitErr := run.Wait(ctx)
	wg.Wait()

	c.mu.Lock()
	// Harvest throughput observations for the next job's seeding, and
	// retire any leases still pointing at this job. A registered worker
	// whose EWMA this job moved is journaled with it (handleResult wrote
	// its tally per lease), so a restarted coordinator seeds its first
	// dispatch with what this one learned.
	for w, r := range q.Rates() {
		if c.rates[w] == r {
			continue // seeded, and this job never heard from it
		}
		c.rates[w] = r
		if ws := c.workers[w]; ws != nil {
			c.pstore.PutWorker(persist.WorkerRecord{ID: w, Points: ws.points, RatePPS: r})
		}
	}
	pd, _ := run.Progress()
	j.pointsDone = pd
	j.run = nil
	for k, rec := range c.leases {
		if rec.job == j {
			// A lease outliving its job delivered nothing the run
			// waited for: the tenant is billed only for work that
			// reached its report.
			c.dropLeaseLocked(k, rec)
		}
	}
	c.mu.Unlock()
	if waitErr != nil {
		return nil, waitErr
	}
	return run.Report(ctx)
}

// finish records — and journals — a job's outcome. Freshly computed
// points were already persisted as they were recorded; a job every one
// of whose points came from the store is flagged Cached. A job cut down
// by coordinator shutdown (not its own failure) is journaled as queued,
// so a restart on the same store resumes it instead of reporting a
// phantom failure.
func (c *Coordinator) finish(j *job, rep core.Report, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j.elapsed = time.Since(j.start)
	var report []byte
	if err == nil {
		if report, err = rep.JSON(); err != nil {
			err = fmt.Errorf("marshal: %w", err)
		}
	}
	var rec persist.JobRecord
	var action, detail string // the audit record; none for a shutdown
	switch {
	case err == nil:
		j.status = JobDone
		j.pointsDone = j.pointsTotal
		j.cached = j.pointsTotal > 0 && int(j.pointHits.Load()) == j.pointsTotal
		j.text, j.report = rep.Text(), report
		if sr, ok := rep.(core.ShardedReport); ok {
			j.timings = sr.ShardTimings()
		}
		rec, action, detail = c.jobRecordLocked(j), "job-done", j.scenario
		c.cfg.Logf("dist: %s (%s) done in %s across %d participant(s), %d/%d point(s) from the store",
			j.id, j.scenario, j.elapsed.Round(time.Millisecond), core.CountWorkers(j.timings),
			j.pointHits.Load(), j.pointsTotal)
	case c.base.Err() != nil:
		j.status, j.errStr = JobFailed, err.Error()
		rec = persist.JobRecord{
			ID: j.id, Scenario: j.scenario, Opts: optsJSON(j.wopts),
			Status: JobQueued, PointsTotal: j.pointsTotal,
			Tenant: j.tenant.Name,
		}
		c.cfg.Logf("dist: %s (%s) interrupted by shutdown after %d/%d point(s); journaled as queued for the next start",
			j.id, j.scenario, j.pointsDone, j.pointsTotal)
	default:
		j.status, j.errStr = JobFailed, err.Error()
		rec, action, detail = c.jobRecordLocked(j), "job-failed", j.errStr
		c.cfg.Logf("dist: %s (%s) failed after %s (%d/%d point(s) done): %v",
			j.id, j.scenario, j.elapsed.Round(time.Millisecond), j.pointsDone, j.pointsTotal, err)
	}
	c.pstore.PutJob(rec)
	if action != "" {
		c.audit(j.tenant.Name, action, j.id, detail)
	}
	// A job journaled-as-queued by shutdown still counts as failed in
	// the metrics and on the event stream — this process did not
	// complete it.
	c.met.jobsCompleted.With(j.status).Inc()
	c.met.jobDuration.Observe(j.elapsed.Seconds())
	c.jobEvent(j, j.status, j.errStr)
	close(j.done)
}

func (c *Coordinator) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID: j.id, Scenario: j.scenario, Status: j.status,
		Error: j.errStr, Report: j.report, Text: j.text,
		Workers: core.CountWorkers(j.timings), Shards: j.timings,
		ElapsedMS: j.elapsed.Milliseconds(), Cached: j.cached,
		PointsDone: j.pointsDone, PointsTotal: j.pointsTotal,
		PointHits: int(j.pointHits.Load()),
		Tenant:    j.tenant.Name, Class: string(j.tenant.Class),
	}
	if j.status == JobRunning {
		st.ElapsedMS = time.Since(j.start).Milliseconds()
		if j.run != nil {
			st.PointsDone, _ = j.run.Progress()
		}
	}
	return st
}

// ------------------------------------------------------ HTTP handlers --

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	var req JobRequest
	if !readJSON(w, r, &req) {
		return
	}
	st, err := c.SubmitFor(t, req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJob serves a job's status; with ?wait_ms=N it first waits, at
// most that long, for the job to become terminal.
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	j, ok := c.jobs[r.PathValue("id")]
	c.mu.Unlock()
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	if waitMS, _ := strconv.ParseInt(r.URL.Query().Get("wait_ms"), 10, 64); waitMS > 0 {
		c.hold(r, parkUntil(waitMS), j.done)
	}
	c.mu.Lock()
	st := c.statusLocked(j)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	var st StatusReply
	ss := c.store.stats()
	st.StorePoints, st.StoreCap, st.StoreHits, st.StoreMisses = ss.points, ss.cap, ss.hits, ss.misses
	st.StoreBytes, st.StoreBytesCap, st.StoreEntryCap, st.StoreRejected = ss.bytes, ss.capBytes, ss.entryCap, ss.rejected
	st.StoreEvictions = ss.evictions
	list := []*tenant.Tenant{c.defTenant}
	if c.tenants != nil {
		list = c.tenants.Tenants()
	}
	c.mu.Lock()
	st.Jobs = len(c.jobs)
	now := time.Now()
	for _, ws := range c.workers {
		ago := now.Sub(ws.lastSeen).Milliseconds()
		if ws.parked > 0 {
			ago = 0
		}
		st.Workers = append(st.Workers, WorkerStatus{
			ID: ws.id, LastSeenMSAgo: ago, Points: ws.points, RatePPS: c.rates[ws.id],
		})
	}
	for _, t := range list {
		st.Tenants = append(st.Tenants, TenantStatus{
			Name: t.Name, Class: string(t.Class), Weight: t.Weight(),
			InFlight: c.inflight[t.Name], MaxInFlight: t.MaxInFlight,
			JobsSubmitted:  t.Usage.JobsSubmitted.Load(),
			PointsRun:      t.Usage.PointsRun.Load(),
			PointsHit:      t.Usage.PointsHit.Load(),
			PointsStreamed: t.Usage.PointsStreamed.Load(),
			StoreBytes:     t.Usage.StoreBytes.Load(),
			StoreRejected:  t.Usage.StoreRejected.Load(),
		})
	}
	c.mu.Unlock()
	sort.Slice(st.Workers, func(i, k int) bool { return st.Workers[i].ID < st.Workers[k].ID })
	writeJSON(w, http.StatusOK, st)
}

// touchWorkerLocked updates — and returns — the sticky worker record
// (nil for an upload that names no worker).
func (c *Coordinator) touchWorkerLocked(id string) *workerState {
	if id == "" {
		return nil
	}
	ws := c.workers[id]
	if ws == nil {
		ws = &workerState{id: id}
		c.workers[id] = ws
	}
	ws.lastSeen = time.Now()
	return ws
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	var req RegisterRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		http.Error(w, "empty worker_id", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	c.touchWorkerLocked(req.WorkerID)
	c.mu.Unlock()
	c.audit(t.Name, "worker-register", "", req.WorkerID)
	c.events.publish(Event{Type: "worker", Worker: req.WorkerID, Tenant: t.Name})
	c.cfg.Logf("dist: worker %s registered", req.WorkerID)
	writeJSON(w, http.StatusOK, RegisterReply{
		LeaseTTLMS: c.cfg.LeaseTTL.Milliseconds(),
		PollMS:     c.cfg.Poll.Milliseconds(),
	})
}

// handleLease grants the asking worker its next lease. With nothing
// grantable, an ask carrying wait_ms parks — c.mu released — until
// wakeLocked, then scans again; it gets its 204 only at its deadline,
// when its client goes away, or on ReleaseParked.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		http.Error(w, "empty worker_id", http.StatusBadRequest)
		return
	}
	deadline := parkUntil(req.WaitMS)
	c.mu.Lock()
	ws := c.touchWorkerLocked(req.WorkerID)
	reply, ok := c.grantLocked(req.WorkerID)
	for again := req.WaitMS > 0; !ok && again; {
		wake := c.wake
		ws.parked++
		c.met.leaseParked.Add(1)
		c.mu.Unlock()
		again = c.hold(r, deadline, wake)
		c.mu.Lock()
		ws.parked--
		c.met.leaseParked.Add(-1)
		ws.lastSeen = time.Now()
		if again {
			reply, ok = c.grantLocked(req.WorkerID)
		}
	}
	c.mu.Unlock()
	if !ok {
		c.met.asksEmpty.Inc()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	c.met.asksGranted.Inc()
	writeJSON(w, http.StatusOK, reply)
}

// grantLocked carves the next lease for a worker by weighted fair share
// over tenants with grantable work: group the running distributed jobs
// by tenant (submit order within a tenant), drop tenants at their
// in-flight cap or with drained queues, then walk tenants in ascending
// virtual time — the first TryNext that yields a lease wins and is
// charged against its tenant's clock.
func (c *Coordinator) grantLocked(workerID string) (LeaseReply, bool) {
	var names []string
	byTenant := make(map[string][]*job)
	for _, j := range c.order {
		if j.run == nil || j.status != JobRunning {
			continue
		}
		t := j.tenant
		if t.MaxInFlight > 0 && c.inflight[t.Name] >= t.MaxInFlight {
			continue
		}
		if j.run.Queue().Pending() == 0 {
			continue
		}
		if _, seen := byTenant[t.Name]; !seen {
			names = append(names, t.Name)
		}
		byTenant[t.Name] = append(byTenant[t.Name], j)
	}
	for _, name := range c.sched.Order(names) {
		for _, j := range byTenant[name] {
			l, ok := j.run.Queue().TryNext(workerID)
			if !ok {
				continue
			}
			c.leases[leaseKey{j.id, l.Seq}] = &leaseRec{
				job: j, lease: l, expires: time.Now().Add(c.cfg.LeaseTTL),
				streamed: make([]bool, l.Points()),
			}
			c.inflight[name] += l.Points()
			c.sched.Charge(name, l.Points())
			c.met.leasesGranted.Inc()
			return LeaseReply{
				JobID: j.id, Scenario: j.scenario, Seq: l.Seq,
				Lo: l.Lo, Hi: l.Hi, Opts: j.wopts,
				TTLMS: c.cfg.LeaseTTL.Milliseconds(),
			}, true
		}
	}
	return LeaseReply{}, false
}

// acceptPoint is the per-point intake both upload endpoints share. It
// rejects an index outside the lease and a value that does not decode;
// an error-free point's wire bytes go into the content-addressed store
// — so even a job that later fails leaves them behind — and, when the
// point is fresh, the work is attributed to the job's tenant. A
// streamed point is always fresh; in a final upload only the unstreamed
// remainder is (the put merely refreshes the streamed ones, attributed
// on receipt; reading rec.streamed without c.mu is safe there, since
// only a live lease is ever marked and this one is retired). The put
// precedes the caller's delivery into the run, so run.OnPoint's
// contains probe skips the point: this is the sole attribution point
// for remote work. Returns the point's offset in the lease and its
// decoded value (nil for a point carrying a worker error).
func (c *Coordinator) acceptPoint(rec *leaseRec, p PointResult, streaming bool) (k int, val any, err error) {
	j, l := rec.job, rec.lease
	if p.Index < l.Lo || p.Index >= l.Hi {
		return 0, nil, fmt.Errorf("point %d outside lease [%d,%d)", p.Index, l.Lo, l.Hi)
	}
	k = p.Index - l.Lo
	if p.Error != "" {
		return k, nil, nil
	}
	if val, err = j.sw.DecodePoint(p.Value); err != nil {
		return k, nil, err
	}
	accepted, rejected := c.store.put(j.keys[p.Index], p.Value)
	if !streaming && rec.streamed[k] {
		return k, val, nil
	}
	if accepted {
		j.tenant.Usage.StoreBytes.Add(int64(len(p.Value)))
	}
	if rejected {
		j.tenant.Usage.StoreRejected.Add(1)
	}
	j.mRun.Inc()
	j.tenant.Usage.PointsRun.Add(1)
	if streaming {
		j.mStreamed.Inc()
		j.tenant.Usage.PointsStreamed.Add(1)
	}
	return k, val, nil
}

// handlePoints records points streamed mid-lease: each is delivered
// into the run (partial progress the job status surfaces) the moment it
// is accepted. Streaming proves the worker is alive, so it extends the
// lease — and a heartbeat is just the upload that streams nothing.
// OK=false tells the worker its lease is gone and the rest of the work
// is wasted.
func (c *Coordinator) handlePoints(w http.ResponseWriter, r *http.Request) {
	var up PointsUpload
	if !readJSON(w, r, &up) {
		return
	}
	key := leaseKey{up.JobID, up.Seq}
	c.mu.Lock()
	c.touchWorkerLocked(up.WorkerID)
	rec, ok := c.leases[key]
	if !ok {
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, PointsReply{OK: false})
		return
	}
	rec.expires = time.Now().Add(c.cfg.LeaseTTL)
	run := rec.job.run // non-nil: a job's leases are dropped with its run
	c.mu.Unlock()
	for _, p := range up.Points {
		k, val, err := c.acceptPoint(rec, p, true)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		run.DeliverPoint(rec.lease, p.Index, val, p.Error)
		c.mu.Lock()
		// Re-check ownership: if the lease expired while we decoded,
		// the point is already delivered (harmless — the value is
		// deterministic) but must not count as streamed on a dead rec.
		if c.leases[key] == rec {
			rec.streamed[k] = true
		}
		c.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, PointsReply{OK: true})
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var up ResultUpload
	if !readJSON(w, r, &up) {
		return
	}
	key := leaseKey{up.JobID, up.Seq}
	c.mu.Lock()
	c.touchWorkerLocked(up.WorkerID)
	rec, ok := c.leases[key]
	if !ok {
		// Lease already completed (retried upload) or expired and
		// reassigned: acknowledge so the worker stops retrying, but
		// change nothing — idempotency.
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, ResultReply{Accepted: false, Duplicate: true})
		return
	}
	// Retiring the lease makes this upload its owner: a retry racing it
	// finds nothing and is answered as a duplicate.
	c.retireLeaseLocked(key, rec)
	run := rec.job.run // non-nil: a job's leases are dropped with its run
	c.mu.Unlock()
	n := rec.lease.Points()
	vals := make([]any, n)
	errStrs := make([]string, n)
	filled := make([]bool, n)
	var err error
	for _, p := range up.Points {
		var k int
		var val any
		if k, val, err = c.acceptPoint(rec, p, false); err != nil {
			break
		}
		vals[k], errStrs[k], filled[k] = val, p.Error, true
	}
	for k := 0; k < n && err == nil; k++ {
		if !filled[k] {
			err = fmt.Errorf("upload missing point %d", rec.lease.Lo+k)
		}
	}
	c.mu.Lock()
	if err != nil {
		// A bad upload returns the lease's unstreamed points to its
		// job's queue, so they are re-run rather than lost.
		c.dropLeaseLocked(key, rec)
		c.mu.Unlock()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if up.WorkerID != "" {
		// Count points only for uploads that owned a lease and
		// validated, so neither a retried upload (response lost, worker
		// resent) nor a rejected one inflates the worker's tally in
		// /v1/status and the journal.
		ws := c.workers[up.WorkerID]
		ws.points += n
		c.pstore.PutWorker(persist.WorkerRecord{ID: ws.id, Points: ws.points, RatePPS: c.rates[ws.id]})
	}
	c.mu.Unlock()
	accepted := run.Deliver(rec.lease, vals, errStrs, time.Duration(up.ElapsedNS))
	writeJSON(w, http.StatusOK, ResultReply{Accepted: accepted, Duplicate: !accepted})
}
