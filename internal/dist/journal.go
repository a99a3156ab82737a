package dist

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/persist"
)

// This file is what the coordinator writes to, and reads back from, its
// persist.Store: the record builders, the audit trail and recovery. The
// journal format is persist's; nothing here decides anything.

// recoverState seeds the coordinator from the journal's last image.
// Called from New before any handler runs, so no locking. Returns the
// non-terminal jobs to re-enqueue.
func (c *Coordinator) recoverState() []*job {
	s := c.sched
	st := c.pstore.Load()
	// Oldest-first seeding reproduces the store's LRU order (each seed
	// pushes to the front); a shrunken budget evicts — and journals —
	// the oldest overflow.
	for _, p := range st.Points {
		c.store.seed(p.Key, p.Val)
	}
	now := time.Now()
	for _, w := range st.Workers {
		s.workers[w.ID] = &workerState{id: w.ID, lastSeen: now, points: w.Points}
		if w.RatePPS > 0 {
			s.rates[w.ID] = w.RatePPS
		}
	}
	var resume []*job
	for _, jr := range st.Jobs {
		var wopts WireOptions
		var optsErr error
		if len(jr.Opts) > 0 {
			optsErr = json.Unmarshal(jr.Opts, &wopts)
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
			_ = json.Unmarshal(jr.Timings, &j.timings) // telemetry only: a job without timings is still its report
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(jr.ID, "job-")); err == nil && n > s.jobSeq {
			s.jobSeq = n
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		switch {
		case j.terminal():
			close(j.done)
		case optsErr != nil:
			// Re-running it with zero options would serve some other
			// run's report under this job's ID: fail it where it stands,
			// under its journaled options, so the next start does too.
			j.status, j.errStr = JobFailed, fmt.Sprintf("dist: recovering %s: journaled options do not parse: %v", jr.ID, optsErr)
			jr.Status, jr.Error = j.status, j.errStr
			c.pstore.PutJob(jr)
			c.audit(t.Name, "job-failed", j.id, j.errStr)
			c.cfg.Logf("%s", j.errStr)
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
	}
	return resume
}

// audit appends one record to the append-only audit trail.
func (c *Coordinator) audit(tenantName, action, jobID, detail string) {
	c.pstore.AppendAudit(persist.AuditRecord{
		TimeMS: time.Now().UnixMilli(),
		Tenant: tenantName, Action: action, JobID: jobID, Detail: detail,
	})
}

// optsJSON marshals a job's wire options for its journal record.
func optsJSON(w WireOptions) json.RawMessage {
	b, _ := json.Marshal(w) // a struct of ints and a bool: cannot fail
	return b
}

// jobRecordLocked builds the journal image of a job's current state.
func jobRecordLocked(j *job) persist.JobRecord {
	rec := persist.JobRecord{
		ID: j.id, Scenario: j.scenario, Opts: optsJSON(j.wopts),
		Status: j.status, Error: j.errStr, Report: j.report, Text: j.text,
		ElapsedMS:   j.elapsed.Milliseconds(),
		PointsTotal: j.pointsTotal, PointsDone: j.pointsDone,
		PointHits: int(j.pointHits.Load()), Cached: j.cached,
		Tenant: j.tenant.Name,
	}
	if len(j.timings) > 0 {
		rec.Timings = appendShardTimings(nil, j.timings)
	}
	return rec
}

// requeuedRecord is the journal image of a job cut down by coordinator
// shutdown: queued, with nothing of this attempt but its grid size, so a
// restart on the same store resumes it instead of reporting a phantom
// failure.
func requeuedRecord(j *job) persist.JobRecord {
	return persist.JobRecord{
		ID: j.id, Scenario: j.scenario, Opts: optsJSON(j.wopts),
		Status: JobQueued, PointsTotal: j.pointsTotal, Tenant: j.tenant.Name,
	}
}

// putWorkerLocked journals a sticky worker's tally and throughput EWMA.
func (c *Coordinator) putWorkerLocked(ws *workerState) {
	c.pstore.PutWorker(persist.WorkerRecord{ID: ws.id, Points: ws.points, RatePPS: c.sched.rates[ws.id]})
}
