package dist

import (
	"errors"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tenant"
)

// This file is the coordinator's planning half: which job runs, which
// worker computes which points, when a silent lease is given up. It
// does no I/O and reads no clock — a method that needs the time is
// handed it — so fair share, expiry and admission are table-testable on
// a synthetic clock (TestSchedulerSeam pins both properties).

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

	// run is non-nil while a distributable plan is executing: leases are
	// carved from run.Queue(). sw is the plan's executable grid (the
	// scenario itself, or its one-point wrapper).
	run *core.SweepRun
	sw  *core.Sweep

	pointsTotal int
	pointsDone  int
	// pointHits counts grid points served from the store — at submit
	// time and at lease-grant pickup. Atomic because grant-time pickups
	// happen inside the queue's lease path, where the scheduler's lock is
	// held by the caller (grantLocked) or not held at all (local shards).
	pointHits atomic.Int64

	report  []byte
	text    string
	timings []core.ShardTiming
	errStr  string
	done    chan struct{}
}

// terminal reports whether the job reached done or failed.
func (j *job) terminal() bool { return j.status == JobDone || j.status == JobFailed }

// leaseKey identifies an outstanding remote lease.
type leaseKey struct {
	jobID string
	seq   uint64
}

// leaseRec tracks a lease checked out by a remote worker. Which of its
// points the worker has delivered is not kept here: the run knows what
// it has recorded (run.Recorded), and a lease that is dropped requeues
// the rest — requeued says how many that was.
type leaseRec struct {
	job      *job
	run      *core.SweepRun // job.run at the grant; outlives job.run's reset
	lease    core.Lease
	granted  time.Time // its completion prices the lease's overhead from here
	expires  time.Time
	requeued int
}

func (rec *leaseRec) key() leaseKey { return leaseKey{rec.job.id, rec.lease.Seq} }

// workerState is the coordinator's record of a sticky worker ID.
type workerState struct {
	id       string
	lastSeen time.Time
	points   int
	parked   int // its lease asks parked right now: > 0 reads as seen now
}

// scheduler owns the job table, the worker registry, the outstanding
// leases and the fair-share state, all under one mutex.
type scheduler struct {
	ttl     time.Duration // how long a lease lives without an upload
	maxJobs int           // execution slots
	retain  int           // finished jobs kept pollable

	mu      sync.Mutex
	jobs    map[string]*job
	order   []*job // submit order, for lease scans and status
	jobSeq  int
	workers map[string]*workerState
	leases  map[leaseKey]*leaseRec
	rates   map[string]float64 // cross-job worker throughput EWMAs

	// fair arbitrates the lease queue and job admission across tenants
	// (it locks internally); inflight tracks each tenant's currently
	// leased points (entries persist at zero so the gauge sync sees the
	// drop).
	fair     *tenant.Scheduler
	inflight map[string]int

	// wake is closed (and replaced) under mu whenever work may have
	// become grantable; a parked lease ask waits on the channel it read
	// under the same hold of mu as its failed scan, so none is missed.
	wake chan struct{}

	// Fair admission: running counts jobs holding one of the maxJobs
	// execution slots; admitCond (on mu) wakes queued jobs when a slot
	// frees or shutdown starts.
	running   int
	admitCond *sync.Cond
	closed    bool
}

func newScheduler(ttl time.Duration, maxJobs, retain int) *scheduler {
	s := &scheduler{
		ttl: ttl, maxJobs: maxJobs, retain: retain,
		jobs:     make(map[string]*job),
		workers:  make(map[string]*workerState),
		leases:   make(map[leaseKey]*leaseRec),
		rates:    make(map[string]float64),
		fair:     tenant.NewScheduler(),
		inflight: make(map[string]int),
		wake:     make(chan struct{}),
	}
	s.admitCond = sync.NewCond(&s.mu)
	return s
}

// addLocked gives a new job the next ID and enters it in the table.
func (s *scheduler) addLocked(j *job) {
	s.jobSeq++
	j.id = "job-" + strconv.Itoa(s.jobSeq)
	s.jobs[j.id] = j
	s.order = append(s.order, j)
}

// sharedLocked finds the tenant's queued or running job that asks for
// exactly this run, so identical in-flight submissions share it.
// Workers/shards/dispatch are deliberately no part of the identity:
// they change only wall-clock time, never report bytes. Sharing stays
// within a tenant — two tenants submitting the same sweep get separate
// jobs (honest accounting and fair-share billing) whose points still
// dedupe through the content-addressed store.
func (s *scheduler) sharedLocked(t *tenant.Tenant, req JobRequest) *job {
	for _, j := range s.order {
		if !j.terminal() && j.tenant.Name == t.Name && j.scenario == req.Scenario && j.wopts == req.Opts {
			return j
		}
	}
	return nil
}

// pruneLocked evicts the oldest finished jobs past the retention bound
// and returns their IDs, so a long-running coordinator's memory is
// bounded by retain finished reports plus whatever is actually in
// flight. Queued and running jobs are never pruned (their leases and
// done channels are live).
func (s *scheduler) pruneLocked() (pruned []string) {
	finished := 0
	for _, j := range s.order {
		if j.terminal() {
			finished++
		}
	}
	s.order = slices.DeleteFunc(s.order, func(j *job) bool {
		if finished <= s.retain || !j.terminal() {
			return false
		}
		delete(s.jobs, j.id)
		pruned = append(pruned, j.id)
		finished--
		return true
	})
	return pruned
}

// errShutdown is what admit returns once shutdown began.
var errShutdown = errors.New("dist: coordinator shutting down")

// admit blocks until this job is granted one of the maxJobs execution
// slots — or shutdown begins. Slots go to the queued job of the tenant
// the fair-share scheduler picks (FIFO within a tenant), not submission
// order: with the slots saturated by one tenant's backlog, another
// tenant's first job is the next admission, not the backlog's tail.
func (s *scheduler) admit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return errShutdown
		}
		if s.running < s.maxJobs && s.nextAdmitLocked() == j {
			s.running++
			j.admitted = true
			// Other waiters re-evaluate: a second free slot may now go
			// to the next pick.
			s.admitCond.Broadcast()
			return nil
		}
		s.admitCond.Wait()
	}
}

// nextAdmitLocked returns the queued job the next free slot should go
// to: the oldest job of the least-virtual-time tenant among those with
// queued work.
func (s *scheduler) nextAdmitLocked() *job {
	var names []string
	oldest := make(map[string]*job)
	for _, j := range s.order {
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
	return oldest[s.fair.Pick(names)]
}

// release returns an execution slot and wakes admission waiters.
func (s *scheduler) release() {
	s.mu.Lock()
	s.running--
	s.admitCond.Broadcast()
	s.mu.Unlock()
}

// shutdown fails every current and future admit: jobs parked there must
// be woken, or Close would wait forever behind waiters nobody signals.
func (s *scheduler) shutdown() {
	s.mu.Lock()
	s.closed = true
	s.admitCond.Broadcast()
	s.mu.Unlock()
}

// wakeLocked lets every parked lease ask re-run its scan.
func (s *scheduler) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// touchLocked updates — and returns — the sticky worker record.
func (s *scheduler) touchLocked(id string, now time.Time) *workerState {
	ws := s.workers[id]
	if ws == nil {
		ws = &workerState{id: id}
		s.workers[id] = ws
	}
	ws.lastSeen = now
	return ws
}

// grantLocked carves the next lease for a worker by weighted fair share
// over tenants with grantable work: group the running distributed jobs
// by tenant (submit order within a tenant), drop tenants at their
// in-flight cap or with drained queues, then walk tenants in ascending
// virtual time — the first TryNext that yields a lease wins and is
// charged against its tenant's clock.
func (s *scheduler) grantLocked(workerID string, now time.Time) (*leaseRec, bool) {
	var names []string
	byTenant := make(map[string][]*job)
	for _, j := range s.order {
		if j.run == nil || j.status != JobRunning {
			continue
		}
		t := j.tenant
		if t.MaxInFlight > 0 && s.inflight[t.Name] >= t.MaxInFlight {
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
	for _, name := range s.fair.Order(names) {
		for _, j := range byTenant[name] {
			l, ok := j.run.Queue().TryNext(workerID)
			if !ok {
				continue
			}
			rec := &leaseRec{job: j, run: j.run, lease: l, granted: now, expires: now.Add(s.ttl)}
			s.leases[rec.key()] = rec
			s.inflight[name] += l.Points()
			s.fair.Charge(name, l.Points())
			return rec, true
		}
	}
	return nil, false
}

// extend is the liveness half of every upload: the lease it names — if
// it is still outstanding — now expires a full TTL from now, and its
// worker was heard from.
func (s *scheduler) extend(k leaseKey, now time.Time) (*leaseRec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.leases[k]
	if ok {
		rec.expires = now.Add(s.ttl)
		s.touchLocked(rec.lease.Worker, now)
	}
	return rec, ok
}

// retireLocked removes a lease from the outstanding table and returns
// its points to the tenant's in-flight budget; it reports false, and
// does nothing, for a lease that is already gone. The inflight entry
// stays at zero rather than being deleted, so the scrape-time gauge sync
// sees the drop instead of a stale last value.
func (s *scheduler) retireLocked(rec *leaseRec) bool {
	if s.leases[rec.key()] != rec {
		return false
	}
	delete(s.leases, rec.key())
	t, before := rec.job.tenant, s.inflight[rec.job.tenant.Name]
	after := max(before-rec.lease.Points(), 0)
	s.inflight[t.Name] = after
	if before >= t.MaxInFlight && after < t.MaxInFlight {
		s.wakeLocked() // a capped tenant (uncapped: after is never < 0) can be granted again
	}
	return true
}

// dropLocked gives up on a lease that will not complete — its worker
// went silent, an upload of it was malformed, or its job ended first.
// The points the worker delivered stay credited; only the rest goes
// back to the job's queue, to be re-run by whoever asks next. That rest
// is refunded: it is about to be leased — and charged — again, and
// without the refund the tenant would pay twice and sink behind
// lower-priority tenants (priority inversion).
func (s *scheduler) dropLocked(rec *leaseRec) {
	if !s.retireLocked(rec) {
		return
	}
	delivered, missing := rec.run.Recorded(rec.lease)
	rec.requeued = missing
	s.fair.Refund(rec.job.tenant.Name, missing)
	if rec.job.run != nil {
		rec.run.Queue().RequeuePartial(rec.lease, delivered)
		s.wakeLocked()
	}
}

// dropJobLocked drops every lease still pointing at a job.
func (s *scheduler) dropJobLocked(j *job) {
	for _, rec := range s.leases {
		if rec.job == j {
			s.dropLocked(rec)
		}
	}
}

// expire drops — and returns — the leases whose workers have been silent
// for a full TTL at now, so their undelivered points are re-run by
// whoever asks next (another worker or a local shard).
func (s *scheduler) expire(now time.Time) (dropped []*leaseRec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range s.leases {
		if !now.Before(rec.expires) {
			s.dropLocked(rec)
			dropped = append(dropped, rec)
		}
	}
	return dropped
}
