package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"
)

// This file is the sharded sweep engine. A parameter-sweep scenario —
// the shape of the paper's headline results: Figure-1 throughput
// probes, the backbone aggregate at each carrier generation, mixed
// traffic per OC level — used to iterate its whole grid inside one
// simulation kernel on one core. A Sweep instead describes the grid
// declaratively (Axes), evaluates one grid point at a time (PointFunc)
// and reassembles the point results into the ordinary scenario Report
// (MergeFunc). The executor leases batches of grid points to shards
// through the work-stealing LeaseQueue (dispatch.go) — each shard owning
// a fresh sim.Kernel/netsim.Network/Testbed — and merges results in
// grid order — never completion order — so a run's report is
// byte-identical to the sequential one at any shard or worker count.
// The same queue serves remote workers (internal/dist),
// which lease points over HTTP; SweepRun is the executor core shared by
// both paths.
//
// A Sweep is an ordinary Scenario: register it with MustRegister and it
// runs through Run/RunAll/cmd/gtwrun with no special cases.

// Axis is one named dimension of a sweep grid.
type Axis struct {
	// Name labels the dimension (diagnostics only).
	Name string
	// Values are the points along this axis, in sweep order.
	Values []any
}

// Point is one coordinate of the sweep grid. Points enumerate the cross
// product of the axes in row-major order: the last axis varies fastest.
type Point struct {
	// Index is the point's position in grid order.
	Index int
	// Coords holds one value per axis, in axis order.
	Coords []any
}

// Coord returns the point's value along axis i.
func (pt Point) Coord(i int) any { return pt.Coords[i] }

// PointFunc evaluates one grid point. tb is the shard's testbed, a
// fresh instance the shard owns. Point functions that drive their own
// simulation kernel (BackboneAggregate-style) ignore tb.
type PointFunc func(ctx context.Context, tb *Testbed, opts Options, pt Point) (any, error)

// MergeFunc reassembles the per-point results — always in grid order,
// one entry per point — into the scenario's Report.
type MergeFunc func(opts Options, results []any) (Report, error)

// Sweep is a parameter-sweep scenario: a grid of points evaluated
// independently and merged deterministically. It implements Scenario.
type Sweep struct {
	name, desc string
	axes       []Axis
	runPoint   PointFunc
	merge      MergeFunc
	noTestbed  bool
	// encode/decode are the wire codec for point results; nil means the
	// sweep is not distributable. WirePoint installs the default
	// JSON-of-concrete-type codec; plan wrappers install a report codec.
	encode func(v any) ([]byte, error)
	decode func(b []byte) (any, error)
	// keyDeps lists the Options fields the point function reads (nil:
	// assume all wire fields), narrowing each point's content address.
	keyDeps []OptField
	// grid memoizes Points(): axes are fixed at construction, and the
	// per-point paths (EvalPoint in the worker's streaming loop) must
	// not re-enumerate the whole grid per point.
	gridOnce sync.Once
	grid     []Point
	// keyTails memoizes each grid point's "|pt=<index>:<coords>" key
	// suffix (PointKey), built on first use: a job keys every point of
	// its grid, and the coordinates never change.
	keyOnce  sync.Once
	keyTails []string
}

// NoShardTestbed declares that every point function builds its own
// simulation state (BackboneAggregate-style) and ignores the testbed
// argument, so shards skip constructing one. Returns the sweep for
// chaining:
//
//	MustRegister(NewSweep(...).NoShardTestbed())
func (sw *Sweep) NoShardTestbed() *Sweep {
	sw.noTestbed = true
	return sw
}

// NewSweep builds a sweep scenario over the cross product of axes.
// Register the result like any other scenario.
func NewSweep(name, description string, axes []Axis, runPoint PointFunc, merge MergeFunc) *Sweep {
	return &Sweep{name: name, desc: description, axes: axes, runPoint: runPoint, merge: merge}
}

// Name implements Scenario.
func (sw *Sweep) Name() string { return sw.name }

// Description implements Scenario.
func (sw *Sweep) Description() string { return sw.desc }

// Points enumerates the grid in row-major order (last axis fastest).
// The slice is computed once and shared; callers must not mutate it.
func (sw *Sweep) Points() []Point {
	sw.gridOnce.Do(func() {
		total := 1
		for _, ax := range sw.axes {
			total *= len(ax.Values)
		}
		if len(sw.axes) == 0 {
			total = 0
		}
		pts := make([]Point, total)
		for i := 0; i < total; i++ {
			coords := make([]any, len(sw.axes))
			rem := i
			for a := len(sw.axes) - 1; a >= 0; a-- {
				n := len(sw.axes[a].Values)
				coords[a] = sw.axes[a].Values[rem%n]
				rem /= n
			}
			pts[i] = Point{Index: i, Coords: coords}
		}
		sw.grid = pts
	})
	return sw.grid
}

// ShardTiming records one shard's — or, in a distributed run, one
// remote worker's — share of a sweep run.
type ShardTiming struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Worker names the participant: "shard-N" for in-process shards,
	// the sticky worker ID for remote workers.
	Worker string `json:"worker,omitempty"`
	// Points is the number of grid points the shard evaluated.
	Points int `json:"points"`
	// ElapsedNS is the shard's wall-clock time in nanoseconds.
	ElapsedNS int64 `json:"elapsed_ns"`
}

// CountWorkers counts the participants that evaluated at least one
// grid point — the "workers" figure of -json envelopes and dist job
// statuses.
func CountWorkers(timings []ShardTiming) int {
	n := 0
	for _, t := range timings {
		if t.Points > 0 {
			n++
		}
	}
	return n
}

// ShardedReport is implemented by reports coming out of a sweep run: the
// merged scenario report plus the per-shard execution timings. Text and
// JSON delegate to the merged report, so sharding never changes the
// measurement record.
type ShardedReport interface {
	Report
	// ShardTimings reports each shard's point count and wall-clock time.
	ShardTimings() []ShardTiming
}

// sweepReport decorates the merged report with shard timings.
type sweepReport struct {
	Report
	timings []ShardTiming
}

// ShardTimings implements ShardedReport.
func (r *sweepReport) ShardTimings() []ShardTiming { return r.timings }

// Run implements Scenario: evaluate every grid point across shards and
// merge in grid order.
//
// Sharding: opts.Shards bounds the shard count (0 = GOMAXPROCS, capped
// at the number of points). Shards lease batches of points from a
// shared work-stealing queue — a shard that drains its lease steals the
// next one, so uneven point costs no longer leave shards idle. Each
// shard runs on its own fresh testbed built from opts. A testbed passed
// in as tb serves an unsharded run itself; sharded, it fixes the
// configuration of every shard's fresh testbed.
//
// Cancellation stops shards between points and Run returns ctx's error;
// a panicking point is contained and reported as that point's error.
// The first error in grid order wins. Dispatch changes only wall-clock
// time: results merge in grid order, so the report stays byte-identical
// whatever the shard count.
func (sw *Sweep) Run(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
	pts := sw.Points()
	if len(pts) == 0 {
		return nil, fmt.Errorf("core: sweep %q has an empty grid", sw.name)
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
		// An explicit WithWorkers bound caps total engine concurrency;
		// don't let the default shard fan-out exceed it (an explicit
		// WithShards still may).
		if opts.Workers > 0 && opts.Workers < shards {
			shards = opts.Workers
		}
	}
	if shards > len(pts) {
		shards = len(pts)
	}
	// Shard testbeds are built from the sweep run's configuration; a
	// testbed handed in by the caller fixes that configuration for
	// every shard (the engine builds none for sweeps, so tb is non-nil
	// only for direct callers).
	shardCfg := Config{WAN: opts.WAN, Extensions: opts.Extensions}
	if tb != nil {
		shardCfg = tb.Cfg
	}

	run := NewSweepRun(sw, opts, NewWorkStealingDispatcher(len(pts), shards), shards)
	// Cancellation closes the queue, unblocking shards waiting on Next;
	// the per-point ctx check records the error for points still held
	// in leases.
	stop := context.AfterFunc(ctx, run.q.Close)
	defer stop()
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var shardTb *Testbed
			if shards == 1 {
				shardTb = tb // unsharded: any testbed the caller handed in
			}
			if shardTb == nil && !sw.noTestbed {
				shardTb = New(shardCfg)
			}
			run.RunShard(ctx, s, fmt.Sprintf("shard-%d", s), shardTb)
		}(s)
	}
	wg.Wait()
	return run.Report(ctx)
}

// runOnePoint evaluates a single grid point with panic containment, so
// one bad point fails the sweep with a usable error instead of tearing
// down the whole worker pool.
func (sw *Sweep) runOnePoint(ctx context.Context, tb *Testbed, opts Options, pt Point) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("point panicked: %v", r)
		}
	}()
	return sw.runPoint(ctx, tb, opts, pt)
}

// NewShardTestbed builds the fresh per-shard (or, remotely, per-lease)
// testbed a sweep's points run on, or nil for sweeps that declared
// NoShardTestbed. The coordinator and workers of internal/dist use it
// so their testbeds match what Sweep.Run would have built locally.
func (sw *Sweep) NewShardTestbed(opts Options) *Testbed {
	if sw.noTestbed {
		return nil
	}
	return New(Config{WAN: opts.WAN, Extensions: opts.Extensions})
}

// ------------------------------------------------------- executor core --

// SweepRun is one in-flight evaluation of a sweep's grid: the results
// array, the queue feeding it, and the per-participant timings.
// Sweep.Run drives it with in-process shards only; the internal/dist
// coordinator additionally delivers remotely evaluated leases into the
// same run, so local shards and remote workers steal from one queue.
//
// Lock order is r.mu then the queue's lock, never the reverse; the
// queue calls its skip predicate (it records through Prefill) unlocked.
type SweepRun struct {
	sw   *Sweep
	opts Options
	pts  []Point
	q    *LeaseQueue

	// OnPoint, when set before the run starts, observes every freshly
	// recorded error-free point result — local shard evaluations and
	// remotely delivered points alike, but not Prefill (those results
	// came from the observer's own store), and each point once:
	// re-recording a point that already has a result is not fresh. The coordinator uses it to persist each point the
	// moment it exists, so a crash loses at most the points still being
	// computed. Called outside the run's lock, possibly from several
	// goroutines at once.
	OnPoint func(i int, val any)

	mu      sync.Mutex
	results []any
	errs    []error
	visited []bool
	local   []ShardTiming // one slot per in-process shard
	remote  []ShardTiming // aggregated per remote worker, in first-completion order
}

// NewSweepRun prepares an execution of sw's grid with localShards
// in-process shard slots. The queue q hands out the leases; it must
// have been built for len(sw.Points()) points.
func NewSweepRun(sw *Sweep, opts Options, q *LeaseQueue, localShards int) *SweepRun {
	pts := sw.Points()
	return &SweepRun{
		sw: sw, opts: opts, pts: pts, q: q,
		results: make([]any, len(pts)),
		errs:    make([]error, len(pts)),
		visited: make([]bool, len(pts)),
		local:   make([]ShardTiming, localShards),
	}
}

// Queue returns the lease queue feeding this run (the coordinator
// leases from it on behalf of remote workers).
func (r *SweepRun) Queue() *LeaseQueue { return r.q }

// record is the one place a point result enters the run. A point that
// already has an error-free result keeps it: point functions are
// deterministic, so a later write is the same value again (a batch
// resent after its acknowledgement was lost) or a stale failure (a
// worker whose lease expired and was re-run elsewhere). With observe
// set, a freshly recorded error-free result is handed to OnPoint. It
// reports whether the write was taken.
func (r *SweepRun) record(i int, val any, err error, observe bool) (fresh bool) {
	r.mu.Lock()
	fresh = !r.visited[i] || r.errs[i] != nil
	if fresh {
		r.results[i], r.errs[i], r.visited[i] = val, err, true
	}
	r.mu.Unlock()
	if fresh && err == nil && observe && r.OnPoint != nil {
		r.OnPoint(i, val)
	}
	return fresh
}

// workerErr is the error for a remote worker's per-point string ("": none).
func workerErr(l Lease, errStr string) error {
	if errStr == "" {
		return nil
	}
	return fmt.Errorf("worker %s: %s", l.Worker, errStr)
}

// RunShard is one in-process shard loop: lease points, evaluate them on
// tb, complete the lease, repeat until the grid is drained. shard is
// the timing slot index, worker the dispatch identity.
func (r *SweepRun) RunShard(ctx context.Context, shard int, worker string, tb *Testbed) {
	//gtwvet:ignore determinism shard timing is engine telemetry; the merged report is built from point results only and never includes it
	start := time.Now()
	points := 0
	for {
		l, ok := r.q.Next(worker)
		if !ok {
			break
		}
		//gtwvet:ignore determinism lease timing is engine telemetry; excluded from report bytes
		leaseStart := time.Now()
		for i := l.Lo; i < l.Hi; i++ {
			var res any
			var err error
			if err = ctx.Err(); err == nil {
				res, err = r.sw.runOnePoint(ctx, tb, r.opts, r.pts[i])
			}
			r.record(i, res, err, true)
		}
		points += l.Points()
		r.q.Complete(l, time.Since(leaseStart))
	}
	elapsed := time.Since(start).Nanoseconds()
	if elapsed < 1 {
		elapsed = 1
	}
	r.mu.Lock()
	if shard >= 0 && shard < len(r.local) {
		r.local[shard] = ShardTiming{Shard: shard, Worker: worker, Points: points, ElapsedNS: elapsed}
	}
	r.mu.Unlock()
}

// Complete finishes a remotely evaluated lease, every point of which
// DeliverPoint has recorded: the lease is completed against the queue —
// elapsed, the worker's evaluation time, feeds its throughput estimate,
// and wall, the time since the grant, prices the lease's overhead — and
// credited to the worker's timing. A lease that is no longer
// outstanding (expired and re-run elsewhere) changes nothing and
// Complete reports false.
//
// Completing can close the queue's Done, waking whoever waits to merge
// the report. Each point was recorded under r.mu before this call took
// it, so that reader — Report and Progress take r.mu too — never sees
// the lease completed but a point of it missing.
func (r *SweepRun) Complete(l Lease, elapsed, wall time.Duration) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.q.complete(l, elapsed, wall) {
		return false
	}
	i := slices.IndexFunc(r.remote, func(t ShardTiming) bool { return t.Worker == l.Worker })
	if i < 0 {
		i = len(r.remote)
		r.remote = append(r.remote, ShardTiming{Worker: l.Worker})
	}
	r.remote[i].Points += l.Points()
	r.remote[i].ElapsedNS += elapsed.Nanoseconds()
	return true
}

// Prefill records a point result obtained outside this run — the
// coordinator's content-addressed point store. It is what the queue's
// skip predicate calls for the points it reports as already known, so
// they are credited there and never leased.
func (r *SweepRun) Prefill(i int, val any) { r.record(i, val, nil, false) }

// DeliverPoint records one point of an outstanding lease as a remote
// worker uploads it — the one way a remote result enters the run. It
// does not touch the queue: the lease either completes later (Complete,
// once its last point is in) or expires, in which case the queue's
// RequeuePartial credits the delivered points and requeues only the
// unfinished tail. It reports whether the point was recorded: not for an
// index outside the lease, nor for a point that already had its result.
func (r *SweepRun) DeliverPoint(l Lease, index int, val any, errStr string) bool {
	return index >= l.Lo && index < l.Hi && r.record(index, val, workerErr(l, errStr), true)
}

// Recorded reports which points of a lease have a result in the run —
// index k of the mask covers grid point l.Lo+k, as RequeuePartial wants
// it — and how many have none.
func (r *SweepRun) Recorded(l Lease) (mask []bool, missing int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	mask = slices.Clone(r.visited[l.Lo:l.Hi])
	for _, done := range mask {
		if !done {
			missing++
		}
	}
	return mask, missing
}

// Progress reports how many grid points have a recorded result (from
// any path: local shards, remotely delivered points, prefills) out of
// the grid total.
func (r *SweepRun) Progress() (done, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range r.visited {
		if v {
			done++
		}
	}
	return done, len(r.visited)
}

// Wait blocks until every grid point has completed or ctx is done.
func (r *SweepRun) Wait(ctx context.Context) error {
	select {
	case <-r.q.Done():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Timings returns the per-participant timings: the in-process shards
// that ran first (by slot; a slot whose shard never started is not a
// participant), then remote workers in first-delivery order, with
// Shard indices assigned sequentially.
func (r *SweepRun) Timings() []ShardTiming {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ShardTiming, 0, len(r.local)+len(r.remote))
	for _, t := range r.local {
		if t.Worker != "" {
			out = append(out, t)
		}
	}
	for _, t := range r.remote {
		t.Shard = len(out)
		out = append(out, t)
	}
	return out
}

// Report merges the results in grid order and decorates the merged
// report with the run's timings. The first error in grid order wins; a
// point never evaluated (the run was cancelled or abandoned) reports
// ctx's error if there is one.
func (r *SweepRun) Report(ctx context.Context) (Report, error) {
	r.mu.Lock()
	for i := range r.pts {
		err := r.errs[i]
		if err == nil && !r.visited[i] {
			if err = ctx.Err(); err == nil {
				err = fmt.Errorf("point never evaluated (dispatch abandoned)")
			}
		}
		if err != nil {
			r.mu.Unlock()
			return nil, fmt.Errorf("core: sweep %q point %d: %w", r.sw.name, i, err)
		}
	}
	results := make([]any, len(r.results))
	copy(results, r.results)
	r.mu.Unlock()
	rep, err := r.sw.merge(r.opts, results)
	if err != nil {
		return nil, err
	}
	return &sweepReport{Report: rep, timings: r.Timings()}, nil
}

// --------------------------------------------------- distributed wire --

// WirePoint declares the concrete type a point result decodes into when
// it travels between a remote worker and the coordinator (JSON over
// HTTP). proto is a zero value of the per-point result type — e.g.
// WirePoint(Figure1Row{}). The type must be one codec.go has a reader
// for: Figure1Row, AggregateRow, MixedTrafficResult or
// FMRIDataflowReport; any other is a registration bug and panics, as
// MustRegister does. Sweeps without a wire codec are not distributable
// and always run in-process. Returns the sweep for chaining, like
// NoShardTestbed.
func (sw *Sweep) WirePoint(proto any) *Sweep {
	switch proto.(type) {
	case Figure1Row:
		sw.decode = pointDecoder(sw.name, readFigure1Row)
	case AggregateRow:
		sw.decode = pointDecoder(sw.name, readAggregateRow)
	case MixedTrafficResult:
		sw.decode = pointDecoder(sw.name, readMixedTrafficResult)
	case FMRIDataflowReport:
		sw.decode = pointDecoder(sw.name, readFMRIDataflowReport)
	default:
		panic(fmt.Sprintf("core: sweep %q: no wire reader for point type %T", sw.name, proto))
	}
	sw.encode = json.Marshal
	return sw
}

// Distributable reports whether the sweep has a wire codec for its
// point results and so can run across remote workers.
func (sw *Sweep) Distributable() bool { return sw.decode != nil }

// EncodePoint marshals one point result for the wire (and for the
// coordinator's content-addressed point store).
func (sw *Sweep) EncodePoint(v any) ([]byte, error) {
	if sw.encode == nil {
		return json.Marshal(v)
	}
	return sw.encode(v)
}

// DecodePoint unmarshals one point result into the declared wire type,
// so MergeFunc's type assertions see the same concrete type a local
// evaluation would have produced. The type's reader (codec.go) walks
// the compact JSON EncodePoint wrote, without reflection, and falls
// back to json.Unmarshal on anything else: either way the value is the
// one json.Unmarshal gives. encoding/json round-trips float64 exactly
// (shortest-representation encoding), and so does the reader's
// strconv.ParseFloat, which is what keeps a distributed report
// byte-identical to a local one.
func (sw *Sweep) DecodePoint(b []byte) (any, error) {
	if sw.decode == nil {
		return nil, fmt.Errorf("core: sweep %q has no wire codec (WirePoint not declared)", sw.name)
	}
	return sw.decode(b)
}

// EvalPoint evaluates the single grid point at index i on tb, with the
// same panic containment an in-process shard applies — the unit the
// streaming worker uploads as soon as it finishes.
func (sw *Sweep) EvalPoint(ctx context.Context, tb *Testbed, opts Options, i int) (any, error) {
	pts := sw.Points()
	if i < 0 || i >= len(pts) {
		return nil, fmt.Errorf("core: sweep %q: point %d outside grid of %d points", sw.name, i, len(pts))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return sw.runOnePoint(ctx, tb, opts, pts[i])
}

// NeedsShardTestbed reports whether the sweep's points run on a
// shard-built testbed (false after NoShardTestbed).
func (sw *Sweep) NeedsShardTestbed() bool { return !sw.noTestbed }

// ----------------------------------------------- content addressing --

// OptField names one cross-machine Options field for PointDeps.
type OptField string

// The Options fields a point's content address can depend on.
const (
	OptWAN        OptField = "wan"
	OptExtensions OptField = "ext"
	OptPEs        OptField = "pes"
	OptFrames     OptField = "frames"
	OptFlows      OptField = "flows"
)

// allOptFields is the conservative default: every wire field is assumed
// to influence every point.
var allOptFields = []OptField{OptWAN, OptExtensions, OptPEs, OptFrames, OptFlows}

// PointDeps declares which Options fields the sweep's points actually
// read — directly, or through the shard testbed they run on. It narrows
// each point's content address, so jobs that differ only in irrelevant
// options (say, Frames for a sweep that never reads it) reuse each
// other's finished points in the coordinator's store. Calling it with
// no arguments declares the points option-independent. The default
// (never called) keys points on every wire field: always correct,
// least reuse. Returns the sweep for chaining, like NoShardTestbed.
func (sw *Sweep) PointDeps(fields ...OptField) *Sweep {
	sw.keyDeps = append([]OptField{}, fields...)
	return sw
}

// PointKey returns the content address of one grid point: a hash of the
// scenario name, the point's grid index and coordinates, and the
// declared option dependencies. Two jobs whose keys match are asking
// for the same computation, so a finished point's wire bytes can be
// served to either — the cross-job reuse behind the coordinator's point
// store. The index is the authoritative discriminator within a grid
// (axis values need not marshal distinctly); coordinates and options
// guard against grids or parameters changing between submissions.
//
// The key format is a persistence contract: the coordinator's point
// store survives restarts (internal/persist), so a key computed by one
// process must match the key the restarted process computes for the
// same point — which it does, because every input is deterministic
// (registration-ordered axis values, json.Marshal's stable field order
// and shortest-float encoding, and the fixed dep spelling above).
// Changing the format silently orphans every persisted point;
// TestPointKeyStableAcrossProcesses pins it.
func (sw *Sweep) PointKey(opts Options, pt Point) string {
	deps := sw.keyDeps
	if deps == nil {
		deps = allOptFields
	}
	var buf [128]byte
	b := append(buf[:0], sw.name...)
	for _, f := range deps {
		switch f {
		case OptWAN:
			b = strconv.AppendInt(append(b, "|wan="...), int64(opts.WAN), 10)
		case OptExtensions:
			b = strconv.AppendBool(append(b, "|ext="...), opts.Extensions)
		case OptPEs:
			b = strconv.AppendInt(append(b, "|pes="...), int64(opts.PEs), 10)
		case OptFrames:
			b = strconv.AppendInt(append(b, "|frames="...), int64(opts.Frames), 10)
		case OptFlows:
			b = strconv.AppendInt(append(b, "|flows="...), int64(opts.Flows), 10)
		}
	}
	b = append(b, sw.keyTail(pt)...)
	sum := sha256.Sum256(b)
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:])
}

// keyTail is the "|pt=<index>:<coords>" part of pt's key: memoized for
// the points of the grid, marshalled afresh for any other point.
func (sw *Sweep) keyTail(pt Point) string {
	grid := sw.Points()
	sw.keyOnce.Do(func() {
		tails := make([]string, len(grid))
		for i, g := range grid {
			tails[i] = pointKeyTail(g)
		}
		sw.keyTails = tails
	})
	if i := pt.Index; i >= 0 && i < len(grid) && len(pt.Coords) > 0 &&
		len(pt.Coords) == len(grid[i].Coords) && &pt.Coords[0] == &grid[i].Coords[0] {
		return sw.keyTails[i]
	}
	return pointKeyTail(pt)
}

func pointKeyTail(pt Point) string {
	coords, err := json.Marshal(pt.Coords)
	if err != nil {
		coords = []byte("unmarshalable")
	}
	return "|pt=" + strconv.Itoa(pt.Index) + ":" + string(coords)
}
