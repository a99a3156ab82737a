package dist

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
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
	// Store receives every coordinator state transition recovery needs —
	// job submissions and outcomes, finished points, worker stats — and
	// provides the recovered state at startup: finished points are
	// served from the store again, jobs that were queued or running
	// resume, and reconnecting workers keep their sticky IDs and
	// throughput EWMAs. Nil defaults to a fresh in-memory
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

// Coordinator serves the protocol over HTTP and runs the jobs: it wires
// the scheduler (who computes what), the transport (the handlers), the
// journal (its persist.Store) and the content-addressed point store
// together. Create with New, mount via Handler, stop with Close.
type Coordinator struct {
	cfg   Config
	mux   *http.ServeMux
	sched *scheduler

	// store is the content-addressed point store; it has its own lock
	// and is safe to touch without the scheduler's.
	store *pointStore
	// pstore is the persistence journal (never nil: defaults to a fresh
	// persist.Mem). Implementations lock internally.
	pstore persist.Store

	// tenants is the auth registry (nil: auth off); defTenant serves
	// unauthenticated coordinators.
	tenants   *tenant.Registry
	defTenant *tenant.Tenant

	met    *metrics
	events *eventHub

	// released is closed by ReleaseParked.
	released    chan struct{}
	releaseOnce sync.Once

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
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:      cfg,
		sched:    newScheduler(cfg.LeaseTTL, cfg.MaxJobs, cfg.RetainJobs),
		released: make(chan struct{}),
	}
	c.pstore = c.cfg.Store
	if c.pstore == nil {
		c.pstore = persist.NewMem()
	}
	c.tenants = c.cfg.Tenants
	c.defTenant = tenant.DefaultTenant()
	c.sched.fair.SetWeight(c.defTenant.Name, c.defTenant.Weight())
	if c.tenants != nil {
		for _, t := range c.tenants.Tenants() {
			c.sched.fair.SetWeight(t.Name, t.Weight())
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
	c.mux = c.routes()
	go c.reap()
	for _, j := range resume {
		c.cfg.Logf("dist: resuming %s (%s) recovered from the store", j.id, j.scenario)
		c.startJob(j)
	}
	return c
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
// pointer it is handed — never j.run, which the scheduler's lock guards.
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

// Close cancels running jobs, stops the reaper, releases what is parked
// and waits for in-flight job goroutines to finish journaling —
// interrupted jobs are recorded as queued, so a restart on the same
// store resumes them. The caller owns the persistence store's lifetime
// (close it after Close returns: the final snapshot has every record).
func (c *Coordinator) Close() {
	c.baseCxl()
	c.sched.shutdown()
	c.ReleaseParked()
	c.wg.Wait()
}

// reap calls the scheduler's expiry on a ticker and reports what it
// gave up on.
func (c *Coordinator) reap() {
	t := time.NewTicker(max(c.cfg.LeaseTTL/4, 10*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-c.base.Done():
			return
		case <-t.C:
			for _, rec := range c.sched.expire(time.Now()) {
				j, l, requeued := rec.job, rec.lease, rec.requeued
				c.met.leasesExpired.Inc()
				c.events.publish(Event{
					Type: "lease", Job: j.id, Tenant: j.tenant.Name,
					Worker: l.Worker, Requeued: requeued,
				})
				c.cfg.Logf("dist: lease %s/%d (points [%d,%d), worker %s) expired; requeued %d unstreamed point(s)",
					j.id, l.Seq, l.Lo, l.Hi, l.Worker, requeued)
			}
		}
	}
}

// SubmitFor queues a scenario run attributed to a tenant (nil: the
// anonymous default tenant), or shares the tenant's identical job that
// is already queued or running. There is no whole-report cache: a
// repeated submission runs through the point store, where every grid
// point hits and only the merge is recomputed — the same path that
// serves partial overlaps.
func (c *Coordinator) SubmitFor(t *tenant.Tenant, req JobRequest) (*JobStatus, error) {
	if t == nil {
		t = c.defTenant
	}
	if _, ok := core.Lookup(req.Scenario); !ok {
		return nil, fmt.Errorf("dist: unknown scenario %q", req.Scenario)
	}
	s := c.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.sharedLocked(t, req)
	if j == nil {
		j = &job{
			scenario: req.Scenario,
			wopts:    req.Opts,
			opts:     req.Opts.Options(),
			status:   JobQueued,
			start:    time.Now(),
			done:     make(chan struct{}),
		}
		c.bindTenant(j, t)
		s.addLocked(j)
		t.Usage.JobsSubmitted.Add(1)
		c.met.jobsSubmitted.With(t.Name).Inc()
		c.pstore.PutJob(jobRecordLocked(j))
		c.audit(t.Name, "job-submit", j.id, j.scenario)
		c.jobEvent(j, JobQueued, "")
		for _, id := range s.pruneLocked() {
			c.pstore.DeleteJob(id)
		}
		c.startJob(j)
	}
	st := c.statusLocked(j)
	return &st, nil
}

// execute runs one job to completion: every distributable plan — sweep
// grids and one-point-wrapped scenarios alike — goes through the shared
// lease queue and the point store; only sweeps without a wire codec
// fall back to a plain in-process run.
func (c *Coordinator) execute(j *job) {
	if err := c.sched.admit(j); err != nil {
		c.finish(j, nil, err)
		return
	}
	defer c.sched.release()
	ctx, cancel := context.WithCancel(c.base)
	defer cancel()

	// A job recovered from the store may name a scenario this build no
	// longer registers; fail it loudly instead of executing a nil plan.
	s, ok := core.Lookup(j.scenario)
	if !ok {
		c.finish(j, nil, fmt.Errorf("dist: unknown scenario %q (recovered from a different build?)", j.scenario))
		return
	}

	// The step to running is not journaled: recovery re-runs a queued
	// job and a running one alike, so the record would change nothing.
	c.sched.mu.Lock()
	j.status = JobRunning
	j.start = time.Now()
	plan := core.PlanFor(s)
	c.sched.mu.Unlock()
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
	shards := min(max(c.cfg.LocalShards, 0), n)
	sch := c.sched
	sch.mu.Lock()
	q := core.NewWorkStealingDispatcher(n, max(shards+len(sch.workers), 1))
	// Seed the queue with what earlier jobs learned about each worker,
	// so a proven-fast worker gets large leases from its first ask.
	for w, r := range sch.rates {
		q.SeedRate(w, r)
	}
	sch.mu.Unlock()
	run := core.NewSweepRun(sw, j.opts, q, shards)
	// Store each freshly computed point the moment it is recorded — by a
	// local shard or delivered by a worker alike — so a crash loses at
	// most the points still being evaluated and even a job that later
	// fails leaves its points behind. OnPoint sees each point once, so
	// this is also where the work is attributed to the job's tenant.
	run.OnPoint = func(i int, val any) {
		c.maybeProgress(j, run, n)
		b, err := sw.EncodePoint(val)
		if err != nil {
			return
		}
		j.mRun.Inc()
		j.tenant.Usage.PointsRun.Add(1)
		accepted, rejected := c.store.put(keys[i], b)
		if accepted {
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
	// comes from inside the lease path (under the scheduler's lock when
	// handleLease is the caller), so the predicate must not take it.
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
	pending := q.Pending() > 0
	sch.mu.Lock()
	j.run = run
	j.sw = sw
	j.pointsTotal = n
	if pending { // an all-hit job wakes nobody
		sch.wakeLocked()
	}
	sch.mu.Unlock()
	if !pending {
		shards = 0 // nor builds a shard testbed: nothing is left to lease
	}

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

	sch.mu.Lock()
	// Harvest throughput observations for the next job's seeding, and
	// drop any leases still pointing at this job. A registered worker
	// whose EWMA this job moved is journaled with it (the upload intake
	// wrote its tally per lease), so a restarted coordinator seeds its
	// first dispatch with what this one learned.
	for w, r := range q.Rates() {
		if sch.rates[w] == r {
			continue // seeded, and this job never heard from it
		}
		sch.rates[w] = r
		if ws := sch.workers[w]; ws != nil {
			c.putWorkerLocked(ws)
		}
	}
	j.pointsDone, _ = run.Progress()
	j.run = nil
	// A lease outliving its job delivered nothing the run waited for:
	// the tenant is billed only for work that reached its report.
	sch.dropJobLocked(j)
	sch.mu.Unlock()
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
	c.sched.mu.Lock()
	defer c.sched.mu.Unlock()
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
		rec, action, detail = jobRecordLocked(j), "job-done", j.scenario
		c.cfg.Logf("dist: %s (%s) done in %s across %d participant(s), %d/%d point(s) from the store",
			j.id, j.scenario, j.elapsed.Round(time.Millisecond), core.CountWorkers(j.timings),
			j.pointHits.Load(), j.pointsTotal)
	case c.base.Err() != nil:
		j.status, j.errStr = JobFailed, err.Error()
		rec = requeuedRecord(j)
		c.cfg.Logf("dist: %s (%s) interrupted by shutdown after %d/%d point(s); journaled as queued for the next start",
			j.id, j.scenario, j.pointsDone, j.pointsTotal)
	default:
		j.status, j.errStr = JobFailed, err.Error()
		rec, action, detail = jobRecordLocked(j), "job-failed", j.errStr
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
