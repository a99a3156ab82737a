package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/tenant"
)

// This file is the coordinator's HTTP face: routes, authentication,
// handlers, and the parking of requests that wait (SSE: events.go).

// routes builds the protocol mux (the table in the package comment).
func (c *Coordinator) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	for route, h := range map[string]func(http.ResponseWriter, *http.Request, *tenant.Tenant){
		"POST /v1/jobs":             c.handleSubmit,
		"GET /v1/jobs/{id}":         c.handleJob,
		"GET /v1/status":            c.handleStatus,
		"GET /v1/metrics":           c.handleMetrics,
		"GET /v1/events":            c.handleEvents,
		"POST /v1/workers/register": c.handleRegister,
		"POST /v1/workers/lease":    c.handleLease,
		// One upload handler, two routes: the path says whether the
		// batch is the lease's last.
		"POST /v1/workers/points": c.handlePoints,
		"POST /v1/workers/result": c.handlePoints,
	} {
		mux.HandleFunc(route, c.authed(h))
	}
	return mux
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeJobStatus is writeJSON for a JobStatus, with the same bytes: the
// report is spliced in as it is (codec.go).
func writeJobStatus(w http.ResponseWriter, st *JobStatus) {
	b, err := appendJobStatus(make([]byte, 0, 256+len(st.Report)+len(st.Text)), st)
	if err != nil {
		http.Error(w, "encoding job status: "+err.Error(), http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // the client going away is its own business
}

// maxBodyBytes bounds a request body. A point value in an admitted body
// is journaled base64-encoded, 4/3 its size, in one WAL record, and
// persist treats a record past 64 MiB as corruption on replay — dropping
// it and every record after it: 32 MiB keeps the largest admissible
// point (42.7 MiB encoded, plus its key) under that.
const maxBodyBytes = 32 << 20

// readJSON decodes a request body into v, or answers 413 (longer than
// maxBodyBytes) or 400 (does not parse) and reports false.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLong *http.MaxBytesError
	if errors.As(err, &tooLong) {
		http.Error(w, fmt.Sprintf("request body over %d bytes", maxBodyBytes), http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
	}
	return false
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
	writeJobStatus(w, st)
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

// handleJob serves a job's status; with ?wait_ms=N it first waits, at
// most that long, for the job to become terminal.
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request, _ *tenant.Tenant) {
	s := c.sched
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	if waitMS, _ := strconv.ParseInt(r.URL.Query().Get("wait_ms"), 10, 64); waitMS > 0 {
		c.hold(r, parkUntil(waitMS), j.done)
	}
	s.mu.Lock()
	st := c.statusLocked(j)
	s.mu.Unlock()
	writeJobStatus(w, &st)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request, _ *tenant.Tenant) {
	var st StatusReply
	ss := c.store.stats()
	st.StorePoints, st.StoreCap, st.StoreHits, st.StoreMisses = ss.points, ss.cap, ss.hits, ss.misses
	st.StoreBytes, st.StoreBytesCap, st.StoreEntryCap, st.StoreRejected = ss.bytes, ss.capBytes, ss.entryCap, ss.rejected
	st.StoreEvictions = ss.evictions
	list := []*tenant.Tenant{c.defTenant}
	if c.tenants != nil {
		list = c.tenants.Tenants()
	}
	s := c.sched
	s.mu.Lock()
	st.Jobs = len(s.jobs)
	now := time.Now()
	for _, ws := range s.workers {
		ago := now.Sub(ws.lastSeen).Milliseconds()
		if ws.parked > 0 {
			ago = 0
		}
		st.Workers = append(st.Workers, WorkerStatus{
			ID: ws.id, LastSeenMSAgo: ago, Points: ws.points, RatePPS: s.rates[ws.id],
		})
	}
	for _, t := range list {
		st.Tenants = append(st.Tenants, TenantStatus{
			Name: t.Name, Class: string(t.Class), Weight: t.Weight(),
			InFlight: s.inflight[t.Name], MaxInFlight: t.MaxInFlight,
			JobsSubmitted:  t.Usage.JobsSubmitted.Load(),
			PointsRun:      t.Usage.PointsRun.Load(),
			PointsHit:      t.Usage.PointsHit.Load(),
			PointsStreamed: t.Usage.PointsStreamed.Load(),
			StoreBytes:     t.Usage.StoreBytes.Load(),
			StoreRejected:  t.Usage.StoreRejected.Load(),
		})
	}
	s.mu.Unlock()
	sort.Slice(st.Workers, func(i, k int) bool { return st.Workers[i].ID < st.Workers[k].ID })
	writeJSON(w, http.StatusOK, st)
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
	if req.Proto != wireProto {
		http.Error(w, fmt.Sprintf("worker speaks protocol %d, this coordinator %d", req.Proto, wireProto), http.StatusBadRequest)
		return
	}
	c.sched.mu.Lock()
	c.sched.touchLocked(req.WorkerID, time.Now())
	c.sched.mu.Unlock()
	c.audit(t.Name, "worker-register", "", req.WorkerID)
	c.events.publish(Event{Type: "worker", Worker: req.WorkerID, Tenant: t.Name})
	c.cfg.Logf("dist: worker %s registered", req.WorkerID)
	writeJSON(w, http.StatusOK, RegisterReply{
		LeaseTTLMS: c.cfg.LeaseTTL.Milliseconds(),
		PollMS:     c.cfg.Poll.Milliseconds(),
		Proto:      wireProto,
	})
}

// handleLease grants the asking worker its next lease. With nothing
// grantable, an ask carrying wait_ms parks — the scheduler's lock
// released — until wakeLocked, then scans again; it gets its 204 only at
// its deadline, when its client goes away, or on ReleaseParked.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request, _ *tenant.Tenant) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		http.Error(w, "empty worker_id", http.StatusBadRequest)
		return
	}
	deadline := parkUntil(req.WaitMS)
	s := c.sched
	s.mu.Lock()
	ws := s.touchLocked(req.WorkerID, time.Now())
	rec, ok := s.grantLocked(req.WorkerID, time.Now())
	for again := req.WaitMS > 0; !ok && again; {
		wake := s.wake
		ws.parked++
		c.met.leaseParked.Add(1)
		s.mu.Unlock()
		again = c.hold(r, deadline, wake)
		s.mu.Lock()
		ws.parked--
		c.met.leaseParked.Add(-1)
		ws.lastSeen = time.Now()
		if again {
			rec, ok = s.grantLocked(req.WorkerID, time.Now())
		}
	}
	s.mu.Unlock()
	if !ok {
		c.met.asksEmpty.Inc()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	c.met.asksGranted.Inc()
	c.met.leasesGranted.Inc()
	j, l := rec.job, rec.lease
	writeJSON(w, http.StatusOK, LeaseReply{
		JobID: j.id, Scenario: j.scenario, Seq: l.Seq,
		Lo: l.Lo, Hi: l.Hi, Opts: j.wopts,
		TTLMS: c.cfg.LeaseTTL.Milliseconds(),
	})
}

// handlePoints is the one upload intake ("One upload" in the package
// comment is its contract). Each point is delivered into the run; the
// last batch then completes the lease — one call, once the run has every
// point of it, so whoever the completion wakes to merge the report finds
// them all. A retried last batch overlapping the one it retries delivers
// the same points (the run keeps the first of each) and finds the lease
// retired.
func (c *Coordinator) handlePoints(w http.ResponseWriter, r *http.Request, _ *tenant.Tenant) {
	var up PointsUpload
	if !readJSON(w, r, &up) {
		return
	}
	last := r.URL.Path == "/v1/workers/result"
	s := c.sched
	rec, owned := s.extend(leaseKey{up.JobID, up.Seq}, time.Now())
	if !owned {
		writeJSON(w, http.StatusOK, PointsReply{OK: false})
		return
	}
	var err error
	for i := 0; i < len(up.Points) && err == nil; i++ {
		err = c.acceptPoint(rec, up.Points[i], !last)
	}
	if last && err == nil {
		if _, hole := rec.run.Recorded(rec.lease); hole > 0 {
			err = fmt.Errorf("last batch of lease [%d,%d) leaves %d point(s) undelivered", rec.lease.Lo, rec.lease.Hi, hole)
		}
	}
	if err != nil || last {
		s.mu.Lock()
		if err != nil {
			s.dropLocked(rec) // what it had not delivered is re-run, not lost
		} else if owned = s.retireLocked(rec); owned {
			// Only the upload that owned a validated lease to the end
			// counts toward its worker's tally in /v1/status and the
			// journal: neither a retry nor a rejected batch inflates it.
			ws := s.workers[rec.lease.Worker]
			ws.points += rec.lease.Points()
			c.putWorkerLocked(ws)
		}
		s.mu.Unlock()
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if owned && last {
		rec.run.Complete(rec.lease, time.Duration(up.ElapsedNS), time.Since(rec.granted))
	}
	writeJSON(w, http.StatusOK, PointsReply{OK: owned})
}

// acceptPoint takes one uploaded point into its run, rejecting an index
// outside the lease and a value that does not decode. Storing and
// attributing it is the run's OnPoint, which sees each point once — so a
// point resent because its acknowledgement was lost is decoded again
// and changes nothing.
func (c *Coordinator) acceptPoint(rec *leaseRec, p PointResult, midLease bool) error {
	j, l := rec.job, rec.lease
	if p.Index < l.Lo || p.Index >= l.Hi {
		return fmt.Errorf("point %d outside lease [%d,%d)", p.Index, l.Lo, l.Hi)
	}
	var val any
	if p.Error == "" {
		var err error
		if val, err = j.sw.DecodePoint(p.Value); err != nil {
			return err
		}
	}
	if rec.run.DeliverPoint(l, p.Index, val, p.Error) && midLease && p.Error == "" {
		j.mStreamed.Inc()
		j.tenant.Usage.PointsStreamed.Add(1)
	}
	return nil
}
