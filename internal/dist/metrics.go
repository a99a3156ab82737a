package dist

import (
	"net/http"

	"repro/internal/obs"
	"repro/internal/tenant"
)

// metrics is the coordinator's instrument bundle. Hot-path instruments
// (points run/hit/streamed, leases granted/expired) are plain atomic
// counters resolved once per job or at wiring time — incrementing them
// is allocation-free. Pull-style values (store residency, worker
// EWMAs, queue depths) are synced into gauges at scrape time by
// syncMetrics, so the hot paths never pay for them.
type metrics struct {
	reg *obs.Registry

	leasesGranted *obs.Counter
	leasesExpired *obs.Counter
	authFailures  *obs.Counter

	asksGranted, asksEmpty *obs.Counter // lease asks by answer: one vec, resolved at wiring
	leaseParked            *obs.Gauge   // lease asks parked right now (kept by handleLease)

	pointsRun      *obs.CounterVec // by tenant: computed fresh
	pointsHit      *obs.CounterVec // by tenant: served from the store
	pointsStreamed *obs.CounterVec // by tenant: uploaded mid-lease

	jobsSubmitted *obs.CounterVec // by tenant
	jobsCompleted *obs.CounterVec // by terminal status
	jobDuration   *obs.Histogram

	storeHits, storeMisses        *obs.Counter // synced from the store at scrape
	storeEvictions, storeRejected *obs.Counter

	storePoints, storeBytes *obs.Gauge
	jobsRunning, jobsQueued *obs.Gauge
	workersGauge            *obs.Gauge
	eventSubs               *obs.Gauge
	workerRate              *obs.GaugeVec // by worker: throughput EWMA, points/sec
	tenantInFlight          *obs.GaugeVec // by tenant: leased points
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	asks := reg.CounterVec("gtw_lease_asks_total", "Lease asks answered, by result (granted: a lease; empty: 204).", "result")
	return &metrics{
		reg: reg,

		asksGranted: asks.With("granted"),
		asksEmpty:   asks.With("empty"),
		leaseParked: reg.Gauge("gtw_lease_parked", "Lease asks parked on the coordinator, waiting for work."),

		leasesGranted: reg.Counter("gtw_leases_granted_total", "Leases granted to workers."),
		leasesExpired: reg.Counter("gtw_leases_expired_total", "Leases expired without heartbeat and requeued."),
		authFailures:  reg.Counter("gtw_auth_failures_total", "Requests rejected for a missing or unknown token."),

		pointsRun:      reg.CounterVec("gtw_points_run_total", "Grid points computed fresh.", "tenant"),
		pointsHit:      reg.CounterVec("gtw_points_hit_total", "Grid points served from the content-addressed store.", "tenant"),
		pointsStreamed: reg.CounterVec("gtw_points_streamed_total", "Grid points uploaded mid-lease by workers.", "tenant"),

		jobsSubmitted: reg.CounterVec("gtw_jobs_submitted_total", "Jobs accepted.", "tenant"),
		jobsCompleted: reg.CounterVec("gtw_jobs_completed_total", "Jobs reaching a terminal state.", "status"),
		jobDuration:   reg.Histogram("gtw_job_duration_seconds", "Job wall time, submit to terminal state.", nil),

		storeHits:      reg.Counter("gtw_store_hits_total", "Point-store lookups that hit."),
		storeMisses:    reg.Counter("gtw_store_misses_total", "Point-store lookups that missed."),
		storeEvictions: reg.Counter("gtw_store_evictions_total", "Points evicted past the store bounds."),
		storeRejected:  reg.Counter("gtw_store_rejected_total", "Points refused under the per-entry byte cap."),

		storePoints:    reg.Gauge("gtw_store_points", "Resident points in the content-addressed store."),
		storeBytes:     reg.Gauge("gtw_store_bytes", "Resident wire bytes in the content-addressed store."),
		jobsRunning:    reg.Gauge("gtw_jobs_running", "Jobs currently executing."),
		jobsQueued:     reg.Gauge("gtw_jobs_queued", "Jobs waiting for an execution slot."),
		workersGauge:   reg.Gauge("gtw_workers", "Registered workers."),
		eventSubs:      reg.Gauge("gtw_event_subscribers", "Live /v1/events subscribers."),
		workerRate:     reg.GaugeVec("gtw_worker_rate_pps", "Per-worker throughput EWMA, points per second.", "worker"),
		tenantInFlight: reg.GaugeVec("gtw_tenant_inflight_points", "Points currently leased per tenant.", "tenant"),
	}
}

// syncCounter advances a counter to a monotonic external value (the
// store's internal tallies) without ever moving it backwards.
func syncCounter(c *obs.Counter, v int64) {
	if d := v - c.Value(); d > 0 {
		c.Add(d)
	}
}

// syncMetrics refreshes the pull-style instruments from live state.
// Called at scrape time, never on a hot path.
func (c *Coordinator) syncMetrics() {
	ss := c.store.stats()
	syncCounter(c.met.storeHits, ss.hits)
	syncCounter(c.met.storeMisses, ss.misses)
	syncCounter(c.met.storeEvictions, ss.evictions)
	syncCounter(c.met.storeRejected, ss.rejected)
	c.met.storePoints.Set(float64(ss.points))
	c.met.storeBytes.Set(float64(ss.bytes))
	c.met.eventSubs.Set(float64(c.events.subscribers()))

	sch := c.sched
	sch.mu.Lock()
	running, queued := 0, 0
	for _, j := range sch.order {
		switch j.status {
		case JobRunning:
			running++
		case JobQueued:
			queued++
		}
	}
	c.met.jobsRunning.Set(float64(running))
	c.met.jobsQueued.Set(float64(queued))
	c.met.workersGauge.Set(float64(len(sch.workers)))
	for id, r := range sch.rates {
		c.met.workerRate.With(id).Set(r)
	}
	for name, n := range sch.inflight {
		c.met.tenantInFlight.With(name).Set(float64(n))
	}
	sch.mu.Unlock()
}

// handleMetrics serves GET /v1/metrics in the Prometheus text format.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request, _ *tenant.Tenant) {
	c.syncMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = c.met.reg.WriteText(w)
}
