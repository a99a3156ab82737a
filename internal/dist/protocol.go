// Package dist is the distributed run service: a coordinator that fans
// any scenario's execution plan out to remote workers over a small
// JSON-over-HTTP protocol, and the worker that executes leased grid
// points on a fresh simulation kernel. The grid point is the universal
// unit of work: parameter sweeps lease their grids, and every other
// scenario travels as a one-point sweep through the same plan
// abstraction (core.PlanFor), so one-shot coupled applications and
// metacomputing sweeps share the queue, the workers and the cache —
// as the paper's applications shared one testbed.
//
// The shape follows the WANify/MPWide pattern from PAPERS.md: a thin
// coordinator owns the work queue and hands out lease-based work units;
// workers with sticky IDs pull leases, upload each point's result as it
// finishes — once — and complete the lease with its last batch. The
// lease queue is the same work-stealing core.LeaseQueue that feeds
// in-process shards, so the coordinator's local shards and any number
// of remote workers steal from one queue, per-worker throughput EWMAs
// steering larger leases to
// faster workers. Results merge in grid order, so a distributed run's
// report is byte-identical to a single-kernel run.
//
// Finished points land in a content-addressed result store keyed by
// core.Sweep.PointKey (scenario + grid coordinates + the option fields
// the point depends on): a later job whose grid overlaps — resubmitted,
// or differing only in options the points never read — is served the
// stored wire bytes instead of re-simulating, and a job that fails
// still leaves its completed points behind.
//
// Protocol (all bodies JSON unless noted):
//
//	POST /v1/jobs                submit a scenario run  -> JobStatus
//	GET  /v1/jobs/{id}[?wait_ms] job status; waits      -> JobStatus
//	GET  /v1/status              coordinator snapshot   -> StatusReply
//	GET  /v1/metrics             Prometheus text exposition
//	GET  /v1/events              SSE stream of Event frames
//	GET  /healthz                liveness               -> "ok"
//	POST /v1/workers/register    announce a worker      -> RegisterReply
//	POST /v1/workers/lease       pull a work unit; waits -> LeaseReply | 204
//	POST /v1/workers/points      a mid-lease batch      -> PointsReply
//	POST /v1/workers/result      the lease's last batch -> PointsReply
//
// One upload: both upload routes take a PointsUpload and one handler
// serves them; the path is the only done flag. A batch carries the
// points the coordinator has not acknowledged yet, so each point crosses
// the wire once; a batch whose answer was lost is resent with the next,
// and a resent point is recorded and attributed once. Any upload extends
// the lease — the empty mid-lease batch is the heartbeat — and a lease
// not heard from within its TTL is requeued, keeping what was uploaded:
// a worker dying late in a lease costs only its unfinished tail. The
// last batch completes the lease, so by then every point of [lo, hi)
// must have arrived. A rejected batch (400: index outside the lease,
// undecodable value, a hole at the end) drops the lease and requeues
// what it had not delivered at once; ok:false answers a lease that is
// gone — expired and reassigned, its job over, or completed by the batch
// this one retries — and changes nothing. A worker abandons its lease on
// ok:false and on any 4xx.
//
// The register handshake carries the worker protocol number (proto,
// today 2): the coordinator refuses a register naming another with a
// 400 that states both, and a worker whose reply names another, or none
// (a coordinator that predates the number), stops with an error instead
// of looping on uploads the other side cannot complete.
//
// Waiting, not polling: a lease ask with wait_ms and nothing grantable
// parks until work may have become grantable (a grid published, a lease
// requeued, a tenant back under its in-flight cap) and gets its 204
// only at the deadline; GET /v1/jobs/{id}?wait_ms=N is held until the
// job is terminal and answers with the report (the current status at
// the deadline). Both are opt-in: no wait_ms, no waiting; and a Client
// whose wait_ms was ignored paces its next ask by Poll, which is all
// Poll is still for.
//
// Multi-tenancy: a coordinator configured with a tenant registry (gtwd
// -tenants) requires "Authorization: Bearer <token>" on every endpoint
// except /healthz, attributes usage to the authenticated tenant, and
// arbitrates the lease queue across tenants by weighted fair share
// (internal/tenant). Without a registry every request is served as the
// anonymous default tenant — the pre-tenancy behavior. Tenancy is
// execution metadata only: it never reaches point keys or report
// bytes, so the point store dedupes across tenants and reports stay
// byte-identical regardless of submitter.
package dist

import (
	"encoding/json"

	"repro/internal/atm"
	"repro/internal/core"
)

// WireOptions is the cross-machine subset of core.Options: the fields
// that parameterize a scenario, without the process-local one
// (Workers). It is also the result-cache key, because these
// are exactly the fields that can change report bytes.
type WireOptions struct {
	WAN        int  `json:"wan,omitempty"`
	Extensions bool `json:"extensions,omitempty"`
	PEs        int  `json:"pes,omitempty"`
	Frames     int  `json:"frames,omitempty"`
	Flows      int  `json:"flows,omitempty"`
}

// FromOptions extracts the wire fields from a full core.Options.
func FromOptions(o core.Options) WireOptions {
	return WireOptions{
		WAN: int(o.WAN), Extensions: o.Extensions,
		PEs: o.PEs, Frames: o.Frames, Flows: o.Flows,
	}
}

// Options rebuilds a core.Options. Fields map verbatim — the client
// sends fully resolved values (it applied its own defaults), so the
// coordinator and workers evaluate exactly what a local run would.
func (w WireOptions) Options() core.Options {
	return core.Options{
		WAN: atm.OC(w.WAN), Extensions: w.Extensions,
		PEs: w.PEs, Frames: w.Frames, Flows: w.Flows,
	}
}

// JobRequest submits one scenario run.
type JobRequest struct {
	Scenario string      `json:"scenario"`
	Opts     WireOptions `json:"opts"`
}

// Job states.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStatus is the coordinator's view of a job, returned on submit and
// by every status request.
type JobStatus struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	Status   string `json:"status"`
	Error    string `json:"error,omitempty"`
	// Report is the scenario report's JSON (byte-identical to a local
	// run's Report.JSON()); Text its rendered table.
	Report json.RawMessage `json:"report,omitempty"`
	Text   string          `json:"text,omitempty"`
	// Workers counts the distinct participants (local shards + remote
	// workers) that evaluated at least one point.
	Workers int `json:"workers,omitempty"`
	// Shards carries the per-participant timings.
	Shards    []core.ShardTiming `json:"shards,omitempty"`
	ElapsedMS int64              `json:"elapsed_ms"`
	// PointsDone/PointsTotal surface execution progress: grid points
	// with a recorded result (streamed mid-lease, completed, or served
	// from the store) out of the plan's grid. A failed job reports how
	// far it got.
	PointsDone  int `json:"points_done,omitempty"`
	PointsTotal int `json:"points_total,omitempty"`
	// PointHits counts grid points served from the content-addressed
	// point store instead of being re-simulated.
	PointHits int `json:"point_hits,omitempty"`
	// Cached reports a job served entirely from the point store (every
	// grid point was a hit; only the merge ran).
	Cached bool `json:"cached,omitempty"`
	// Tenant and Class attribute the job to its submitter (execution
	// metadata only — never part of point keys or report bytes).
	Tenant string `json:"tenant,omitempty"`
	Class  string `json:"class,omitempty"`
}

// RegisterRequest announces a worker. Worker IDs are sticky: the same
// ID across reconnects keeps the worker's identity (and its throughput
// EWMA) on the coordinator.
type RegisterRequest struct {
	WorkerID string `json:"worker_id"`
	Proto    int    `json:"proto"`
}

// RegisterReply tunes the worker's loop (PollMS: its retry back-off)
// and names the protocol the coordinator speaks.
type RegisterReply struct {
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	PollMS     int64 `json:"poll_ms"`
	Proto      int   `json:"proto"`
}

// wireProto numbers the worker protocol; both sides of a register must
// name the same one. 2: one upload body, the last batch completes the
// lease (the separate full result upload before it had no number).
const wireProto = 2

// LeaseRequest pulls the next work unit for a worker; WaitMS > 0 lets
// the coordinator park an ask it cannot grant for up to that long.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	WaitMS   int64  `json:"wait_ms,omitempty"`
}

// LeaseReply is one leased work unit: grid points [Lo, Hi) of the named
// sweep scenario. The worker must upload — points, or the empty batch —
// within TTL or the lease is requeued.
type LeaseReply struct {
	JobID    string      `json:"job_id"`
	Scenario string      `json:"scenario"`
	Seq      uint64      `json:"seq"`
	Lo       int         `json:"lo"`
	Hi       int         `json:"hi"`
	Opts     WireOptions `json:"opts"`
	TTLMS    int64       `json:"ttl_ms"`
}

// PointResult is one evaluated grid point on the wire: the sweep's
// wire-typed value as raw JSON, or the error string that evaluation
// produced.
type PointResult struct {
	Index int             `json:"index"`
	Value json.RawMessage `json:"value,omitempty"`
	Error string          `json:"error,omitempty"`
}

// PointsUpload is the one upload body: the points of a held lease — it
// names its worker — that the coordinator has not acknowledged yet
// (none: the heartbeat). ElapsedNS, read off the last batch, is the
// worker's evaluation time for the whole lease.
type PointsUpload struct {
	JobID     string        `json:"job_id"`
	Seq       uint64        `json:"seq"`
	ElapsedNS int64         `json:"elapsed_ns,omitempty"`
	Points    []PointResult `json:"points"`
}

// PointsReply acknowledges an upload: its points are recorded. OK=false
// means the lease is gone and nothing changed: the worker should abandon
// it.
type PointsReply struct {
	OK bool `json:"ok"`
}

// WorkerStatus is one registered worker in the status snapshot.
type WorkerStatus struct {
	ID            string  `json:"id"`
	LastSeenMSAgo int64   `json:"last_seen_ms_ago"`
	Points        int     `json:"points"`
	RatePPS       float64 `json:"rate_pps,omitempty"`
}

// TenantStatus is one tenant's accounting block in the status
// snapshot: scheduling identity plus lifetime usage, including the
// per-tenant store attribution (bytes added, byte-budget rejections).
type TenantStatus struct {
	Name   string  `json:"name"`
	Class  string  `json:"class"`
	Weight float64 `json:"weight"`
	// InFlight is the tenant's currently leased points; MaxInFlight its
	// configured cap (0: unlimited).
	InFlight    int `json:"in_flight"`
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// Usage counters: jobs accepted, points computed fresh, points
	// served from the store, points streamed mid-lease by workers.
	JobsSubmitted  int64 `json:"jobs_submitted"`
	PointsRun      int64 `json:"points_run"`
	PointsHit      int64 `json:"points_hit"`
	PointsStreamed int64 `json:"points_streamed,omitempty"`
	// Store attribution: wire bytes this tenant's fresh points added to
	// the store, and how many of its points the store refused under the
	// per-entry byte cap.
	StoreBytes    int64 `json:"store_bytes,omitempty"`
	StoreRejected int64 `json:"store_rejected,omitempty"`
}

// StatusReply is the coordinator snapshot (GET /v1/status).
type StatusReply struct {
	Workers []WorkerStatus `json:"workers"`
	Jobs    int            `json:"jobs"`
	// The content-addressed point store: resident points, capacity, and
	// lifetime hit/miss counters.
	StorePoints int   `json:"store_points"`
	StoreCap    int   `json:"store_cap"`
	StoreHits   int64 `json:"store_hits"`
	StoreMisses int64 `json:"store_misses"`
	// The store's byte accounting: resident wire bytes, the total byte
	// budget (0: entries-only bound), the per-entry size cap (0: none)
	// and how many oversized results the cap rejected.
	StoreBytes     int64 `json:"store_bytes"`
	StoreBytesCap  int64 `json:"store_bytes_cap,omitempty"`
	StoreEntryCap  int   `json:"store_entry_cap,omitempty"`
	StoreRejected  int64 `json:"store_rejected,omitempty"`
	StoreEvictions int64 `json:"store_evictions,omitempty"`
	// Tenants carries per-tenant accounting — the configured registry,
	// or the single anonymous tenant when auth is disabled.
	Tenants []TenantStatus `json:"tenants,omitempty"`
}

// Event is one frame of the /v1/events SSE stream (the data: payload;
// the SSE event name repeats Type). Subscribers get job transitions,
// coalesced point progress, worker registrations and lease expiries —
// enough to render a live dashboard without polling.
type Event struct {
	Type string `json:"type"` // job | points | worker | lease
	// TimeMS is the coordinator's wall clock at publish, unix ms.
	TimeMS int64 `json:"t"`
	// Job fields (type job, points).
	Job         string `json:"job,omitempty"`
	Scenario    string `json:"scenario,omitempty"`
	Tenant      string `json:"tenant,omitempty"`
	Status      string `json:"status,omitempty"`
	Error       string `json:"error,omitempty"`
	PointsDone  int    `json:"points_done,omitempty"`
	PointsTotal int    `json:"points_total,omitempty"`
	// Worker fields (type worker, lease).
	Worker string `json:"worker,omitempty"`
	// Lease fields (type lease: an expiry — Requeued points went back).
	Requeued int `json:"requeued,omitempty"`
}
