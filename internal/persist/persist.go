// Package persist is the coordinator's durable state engine: a
// pluggable Store holding everything gtwd must not lose across a
// process death — submitted jobs (with their reports once finished),
// the content-addressed point store, and per-worker identity and
// throughput statistics.
//
// Two implementations share one contract. Mem keeps the state in
// process memory: it is the default for ephemeral coordinators and the
// test double for recovery logic (hand the same Mem to a second
// coordinator and it "restarts"). Disk journals every mutation to an
// append-only write-ahead log with CRC-framed records and periodically
// compacts the log into an atomic snapshot, so a coordinator killed at
// any instant recovers to its last journaled state: finished points are
// served from cache, interrupted jobs resume with only their
// unjournaled tails re-run, and reconnecting workers keep their sticky
// IDs and EWMAs.
//
// The unit of durability is the mutation, not the transaction: every
// record is idempotent to replay (puts are upserts, deletes of absent
// keys are no-ops), so a log truncated mid-record simply recovers to
// the last complete entry.
package persist

import (
	"container/list"
	"encoding/json"
	"slices"
	"strconv"

	"repro/internal/wirejson"
)

// JobRecord is one submitted job as the store keeps it. Non-terminal
// records (status queued/running) are re-enqueued on recovery; terminal
// ones (done/failed) are restored as pollable history. Opts and the
// report fields are kept as raw JSON so the store does not depend on
// the coordinator's wire types.
type JobRecord struct {
	ID       string          `json:"id"`
	Scenario string          `json:"scenario"`
	Tenant   string          `json:"tenant,omitempty"`
	Opts     json.RawMessage `json:"opts,omitempty"`
	Status   string          `json:"status"`
	Error    string          `json:"error,omitempty"`
	Report   json.RawMessage `json:"report,omitempty"`
	Text     string          `json:"text,omitempty"`
	Timings  json.RawMessage `json:"timings,omitempty"`

	ElapsedMS   int64 `json:"elapsed_ms,omitempty"`
	PointsTotal int   `json:"points_total,omitempty"`
	PointsDone  int   `json:"points_done,omitempty"`
	PointHits   int   `json:"point_hits,omitempty"`
	Cached      bool  `json:"cached,omitempty"`
}

// WorkerRecord is one sticky worker identity: its lifetime point tally
// and its cross-job throughput EWMA, which steers lease sizing from the
// worker's first ask after a coordinator restart.
type WorkerRecord struct {
	ID      string  `json:"id"`
	Points  int     `json:"points,omitempty"`
	RatePPS float64 `json:"rate_pps,omitempty"`
}

// PointRecord is one finished grid point: its content address and the
// wire bytes a worker uploaded (or the coordinator encoded locally).
type PointRecord struct {
	Key string `json:"key"`
	Val []byte `json:"val"`
}

// AuditRecord is one entry of the coordinator's append-only audit
// trail: who did what, when. Timestamps are unix milliseconds set by
// the coordinator at append time.
type AuditRecord struct {
	TimeMS int64  `json:"t"`
	Tenant string `json:"tenant,omitempty"`
	Action string `json:"action"` // e.g. job-submit, job-done, job-failed, worker-register, auth-reject
	JobID  string `json:"job,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// maxAuditRecords bounds the audit trail a store retains: the log is
// append-only in spirit, but snapshots keep only the newest window so
// durable state stays proportional to live work, not to history.
const maxAuditRecords = 4096

// State is a full snapshot of the durable coordinator state. Points are
// ordered least-recently-stored first, so reloading them in order
// reconstructs the point store's eviction order. Audit entries are
// oldest-first, capped at maxAuditRecords.
type State struct {
	Jobs    []JobRecord    `json:"jobs,omitempty"`
	Workers []WorkerRecord `json:"workers,omitempty"`
	Points  []PointRecord  `json:"points,omitempty"`
	Audit   []AuditRecord  `json:"audit,omitempty"`
}

// Store is the durable state engine behind a coordinator. Mutation
// methods are durability best-effort: implementations log failures and
// keep serving (an unwritable disk degrades gtwd to an ephemeral
// coordinator, it does not take it down). All methods are safe for
// concurrent use.
type Store interface {
	// Load returns the state the store recovered at open. Call once,
	// before any mutation.
	Load() *State
	// PutPoint upserts one finished point's wire bytes.
	PutPoint(key string, val []byte)
	// DeletePoint forgets an evicted point, so snapshots stay bounded by
	// the live store, not by everything ever computed.
	DeletePoint(key string)
	// PutJob upserts a job record (submit, finish, resume).
	PutJob(rec JobRecord)
	// DeleteJob forgets a pruned job.
	DeleteJob(id string)
	// PutWorker upserts a worker's identity and statistics.
	PutWorker(rec WorkerRecord)
	// AppendAudit appends one audit-trail entry. Stores retain only the
	// newest maxAuditRecords entries across snapshots.
	AppendAudit(rec AuditRecord)
	// Snapshot compacts the journal into a full-state snapshot now (Disk
	// also snapshots on a timer and on Close; Mem has nothing to do).
	Snapshot() error
	// Close flushes (Disk: a final snapshot) and releases the store.
	Close() error
}

// mirror is the live full-state image both implementations maintain:
// Mem serves Load straight from it, Disk serializes it into snapshots
// so compaction never has to re-read its own log.
type mirror struct {
	jobs    map[string]*JobRecord
	jobIDs  []string // insertion order, so recovery resubmits in order
	workers map[string]*WorkerRecord
	points  *list.List // *PointRecord, back = least recently stored
	byKey   map[string]*list.Element
	// audit is a ring of at most maxAuditRecords entries: oldest first
	// until it fills, then the oldest is at auditHead, where the next
	// entry overwrites it.
	audit     []AuditRecord
	auditHead int
}

func newMirror() *mirror {
	return &mirror{
		jobs:    make(map[string]*JobRecord),
		workers: make(map[string]*WorkerRecord),
		points:  list.New(),
		byKey:   make(map[string]*list.Element),
	}
}

func (m *mirror) putPoint(key string, val []byte) {
	if el, ok := m.byKey[key]; ok {
		el.Value.(*PointRecord).Val = val
		m.points.MoveToFront(el)
		return
	}
	m.byKey[key] = m.points.PushFront(&PointRecord{Key: key, Val: val})
}

func (m *mirror) deletePoint(key string) {
	if el, ok := m.byKey[key]; ok {
		m.points.Remove(el)
		delete(m.byKey, key)
	}
}

func (m *mirror) putJob(rec JobRecord) {
	if _, ok := m.jobs[rec.ID]; !ok {
		m.jobIDs = append(m.jobIDs, rec.ID)
	}
	cp := rec
	m.jobs[rec.ID] = &cp
}

func (m *mirror) deleteJob(id string) {
	if _, ok := m.jobs[id]; !ok {
		return
	}
	delete(m.jobs, id)
	for i, jid := range m.jobIDs {
		if jid == id {
			m.jobIDs = append(m.jobIDs[:i], m.jobIDs[i+1:]...)
			break
		}
	}
}

func (m *mirror) putWorker(rec WorkerRecord) {
	cp := rec
	m.workers[rec.ID] = &cp
}

func (m *mirror) appendAudit(rec AuditRecord) {
	if len(m.audit) < maxAuditRecords {
		m.audit = append(m.audit, rec)
		return
	}
	m.audit[m.auditHead] = rec
	m.auditHead = (m.auditHead + 1) % maxAuditRecords
}

// load replaces the mirror's contents with a snapshot state.
func (m *mirror) load(s *State) {
	*m = *newMirror()
	if s == nil {
		return
	}
	for _, j := range s.Jobs {
		m.putJob(j)
	}
	for _, w := range s.Workers {
		m.putWorker(w)
	}
	for _, p := range s.Points { // oldest first: PushFront keeps order
		m.putPoint(p.Key, p.Val)
	}
	for _, a := range s.Audit {
		m.appendAudit(a)
	}
}

// state snapshots the mirror. Points come out oldest-first so load
// round-trips the store order.
func (m *mirror) state() *State {
	s := &State{}
	for _, id := range m.jobIDs {
		s.Jobs = append(s.Jobs, *m.jobs[id])
	}
	for _, w := range sortedKeys(m.workers) {
		s.Workers = append(s.Workers, *m.workers[w])
	}
	for el := m.points.Back(); el != nil; el = el.Prev() {
		s.Points = append(s.Points, *el.Value.(*PointRecord))
	}
	s.Audit = append(append(s.Audit, m.audit[m.auditHead:]...), m.audit[:m.auditHead]...)
	return s
}

func sortedKeys(m map[string]*WorkerRecord) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort: worker counts are small
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// AppendJSON appends the record as json.Marshal encodes it. The report
// is by far the largest field and is already compact, HTML-escaped
// json.Marshal output, so it and the other raw fields are spliced in as
// they are (wirejson.AppendRaw) instead of being re-compacted.
func (rec *JobRecord) AppendJSON(b []byte) ([]byte, error) {
	var err error
	b = wirejson.AppendString(append(b, `{"id":`...), rec.ID)
	b = wirejson.AppendString(append(b, `,"scenario":`...), rec.Scenario)
	if rec.Tenant != "" {
		b = wirejson.AppendString(append(b, `,"tenant":`...), rec.Tenant)
	}
	if len(rec.Opts) > 0 {
		if b, err = wirejson.AppendRaw(append(b, `,"opts":`...), rec.Opts); err != nil {
			return nil, err
		}
	}
	b = wirejson.AppendString(append(b, `,"status":`...), rec.Status)
	if rec.Error != "" {
		b = wirejson.AppendString(append(b, `,"error":`...), rec.Error)
	}
	if len(rec.Report) > 0 {
		if b, err = wirejson.AppendRaw(append(b, `,"report":`...), rec.Report); err != nil {
			return nil, err
		}
	}
	if rec.Text != "" {
		b = wirejson.AppendString(append(b, `,"text":`...), rec.Text)
	}
	if len(rec.Timings) > 0 {
		if b, err = wirejson.AppendRaw(append(b, `,"timings":`...), rec.Timings); err != nil {
			return nil, err
		}
	}
	if rec.ElapsedMS != 0 {
		b = strconv.AppendInt(append(b, `,"elapsed_ms":`...), rec.ElapsedMS, 10)
	}
	if rec.PointsTotal != 0 {
		b = strconv.AppendInt(append(b, `,"points_total":`...), int64(rec.PointsTotal), 10)
	}
	if rec.PointsDone != 0 {
		b = strconv.AppendInt(append(b, `,"points_done":`...), int64(rec.PointsDone), 10)
	}
	if rec.PointHits != 0 {
		b = strconv.AppendInt(append(b, `,"point_hits":`...), int64(rec.PointHits), 10)
	}
	if rec.Cached {
		b = append(b, `,"cached":true`...)
	}
	return append(b, '}'), nil
}

// appendJSON appends the state as json.Marshal encodes it, every job
// record through AppendJSON.
func (s *State) appendJSON(b []byte) ([]byte, error) {
	rest, err := json.Marshal(&State{Workers: s.Workers, Points: s.Points, Audit: s.Audit})
	if err != nil || len(s.Jobs) == 0 {
		return append(b, rest...), err
	}
	need := len(rest) + 16
	for i := range s.Jobs {
		need += 256 + len(s.Jobs[i].Report) + len(s.Jobs[i].Text) + len(s.Jobs[i].Timings)
	}
	b = append(slices.Grow(b, need), `{"jobs":[`...)
	for i := range s.Jobs {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = s.Jobs[i].AppendJSON(b); err != nil {
			return nil, err
		}
	}
	b = append(b, ']')
	if len(rest) > len("{}") {
		return append(append(b, ','), rest[1:]...), nil
	}
	return append(b, '}'), nil
}
