// Package pdes runs several sim.Kernels as one conservative parallel
// discrete-event simulation (Chandy-Misra-Bryant). The model partition
// owning each kernel exchanges timestamped messages with its neighbours
// over Queues — one bounded FIFO per cut-edge direction — and a Group
// synchronizes the kernels in barrier-delimited rounds:
//
//  1. Every member drains its input queues (in fixed queue order, FIFO
//     within a queue), injecting each message into its kernel.
//  2. Barrier; every member publishes its next-event time. The
//     per-round bound announcement is the null message of the classic
//     algorithm — one broadcast per member per round, counted in Stats.
//  3. Every member computes its own safe horizon from the published
//     bounds and the latency-weighted distances of the cut graph — see
//     "Per-pair lookahead" below — and fires its events strictly below
//     it. If every bound is infinite the simulation is over.
//  4. Barrier (making every enqueued message visible), next round.
//
// # Per-pair lookahead
//
// One global window (global-min + the smallest cut latency) would
// synchronize every kernel on the worst edge: one short edge anywhere
// throttles all partitions. Every queue carries its edge's own latency
// (NewQueue), so the group instead bounds each member pair by the
// latency-weighted shortest path between them. NewGroup precomputes,
// over the directed cut graph,
//
//	dist[k][j] = shortest latency-weighted distance from k to j
//	horiz[k][i] = min over incoming edges (j -> i, latency d) of
//	              dist[k][j] + d
//
// and each round member i fires below
//
//	H_i = min over all members k of (B_k + horiz[k][i])
//
// where B_k is k's published bound. This is safe: a message reaching i
// during the round was sent by a direct neighbour j firing an event at
// t >= B_j, so it is stamped >= B_j + d(j,i) >= B_j + horiz[j][i] >=
// H_i, while i only fired below H_i. Any influence from a distant k
// must first cross to some neighbour j, which costs at least dist[k][j]
// in virtual time — exactly what horiz charges. It makes progress: the
// member holding the global minimum bound has H > B because every
// horiz entry is positive (horiz[i][i] is i's shortest cycle). And it
// is never less permissive than the global window, because every
// horiz[k][i] is at least the minimum cut latency. A member no cut edge
// reaches has an infinite horizon and drains in one round.
//
// The rounds make the result independent of goroutine scheduling: which
// host thread runs which member never changes what any kernel observes,
// only wall-clock time. Queues need no locks for the same reason — a
// queue is written by exactly one member strictly between two barriers
// and read by exactly one member strictly after the second.
//
// The package is model-agnostic: payloads are raw pointers and
// injection is a per-queue callback, so internal/netsim can ride its
// pooled packets across partitions without boxing or per-message
// allocation.
package pdes

import (
	"fmt"
	"math"
	"sync"
	"time"
	"unsafe"

	"repro/internal/sim"
)

// maxTime is the "no pending events" sentinel in the bound exchange and
// the "unreachable" sentinel in the distance tables.
const maxTime = sim.Time(math.MaxInt64)

// satAdd adds a bound and a horizon offset, saturating at maxTime.
func satAdd(a, b sim.Time) sim.Time {
	s := a + b
	if s < a {
		return maxTime
	}
	return s
}

// item is one in-flight cross-partition message.
type item struct {
	p  unsafe.Pointer
	at sim.Time
}

// Queue is the bounded FIFO carrying timestamped payloads across one
// cut-edge direction, from exactly one sending member to exactly one
// receiving member. The barrier protocol is the synchronization: Push
// happens only inside the sender's execution window, drain only after
// the window-closing barrier, so no lock is needed and steady-state
// traffic stays allocation-free once the ring reaches the cut edge's
// natural bound (capacity x window / packet size); Push beyond the
// preallocated capacity grows the buffer rather than blocking, which
// would deadlock the round.
type Queue struct {
	deliver func(p unsafe.Pointer, at sim.Time)
	items   []item

	// The cut edge: the sending member's index and the edge's own
	// minimum latency, from which NewGroup derives the per-pair horizons.
	from      int
	lookahead time.Duration
}

// NewQueue builds the queue of one cut-edge direction, preallocating
// capacity slots. from is the index (in the group's member slice) of
// the sending member, lookahead the edge's own minimum latency — every
// Push must be stamped at least lookahead after the sender's clock. It
// must be positive: a zero-lookahead cut serializes the model and
// belongs in one kernel. deliver injects one drained message into the
// receiving member's kernel and runs on the receiver's goroutine.
func NewQueue(capacity, from int, lookahead time.Duration, deliver func(p unsafe.Pointer, at sim.Time)) *Queue {
	if from < 0 {
		panic(fmt.Sprintf("pdes: queue with negative sending member index %d", from))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("pdes: queue with non-positive lookahead %v", lookahead))
	}
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{deliver: deliver, items: make([]item, 0, capacity), from: from, lookahead: lookahead}
}

// Push enqueues a message with its arrival timestamp. Call only from
// the sending member's kernel context (inside its execution window).
func (q *Queue) Push(p unsafe.Pointer, at sim.Time) {
	q.items = append(q.items, item{p, at})
}

// drain injects every queued message in FIFO order and resets the
// queue, keeping its buffer.
func (q *Queue) drain() {
	for i := range q.items {
		q.deliver(q.items[i].p, q.items[i].at)
		q.items[i] = item{}
	}
	q.items = q.items[:0]
}

// Member is one partition: a kernel plus the queues it drains. In
// (like the members slice itself) is fixed at NewGroup time; the drain
// order is the slice order, which must be deterministic for reports to
// be byte-identical across runs.
type Member struct {
	K  *sim.Kernel
	In []*Queue
}

// Stats reports synchronization-cost counters for one Group, cumulative
// across Runs. Read only while the group is quiescent.
type Stats struct {
	// Rounds is the number of completed synchronization rounds.
	Rounds int64
	// NullMessages is the number of bound announcements exchanged:
	// one per member per round (the CMB null-message traffic, realised
	// here as the barrier's shared bound slots).
	NullMessages int64
	// Events is the number of events each member's kernel has fired,
	// indexed by member — the deterministic per-partition load signal.
	Events []int64
}

// Group synchronizes a fixed set of members. Build once with NewGroup,
// then Run as many times as the driving code needs (each Run picks up
// whatever events were scheduled while the group was quiescent).
// Between Runs the kernels are quiescent and the driver may schedule
// freely; during a Run only member callbacks may touch the kernels.
type Group struct {
	members []*Member

	// horiz[k][i] is the per-pair bound offset: member i may fire below
	// min over k of (bound[k] + horiz[k][i]).
	horiz [][]sim.Time

	next  []sim.Time // per-member bound slots, exchanged at the barrier
	bar   barrier
	stats Stats

	// workers run the rounds of members 1..n-1 for one Run and signal
	// wg. Built once in NewGroup so that spawning them allocates nothing
	// per Run.
	workers []func()
	wg      sync.WaitGroup
}

// NewGroup builds a group over the given members, synchronized with
// per-pair horizons derived from their queues' edge latencies (see the
// package comment).
func NewGroup(members []*Member) *Group {
	if len(members) == 0 {
		panic("pdes: group with no members")
	}
	g := &Group{
		members: members,
		horiz:   perPairHorizons(members),
		next:    make([]sim.Time, len(members)),
	}
	g.bar.init(len(members))
	for i := 1; i < len(members); i++ {
		g.workers = append(g.workers, func() {
			g.runMember(i)
			g.wg.Done()
		})
	}
	return g
}

// perPairHorizons builds the horizon table from the members' queue
// edges. Floyd-Warshall over the member count — partitions are few (one
// per core at most), so the cubic cost is noise next to one simulation
// round. Without cut edges every entry is infinite.
func perPairHorizons(members []*Member) [][]sim.Time {
	n := len(members)
	type edge struct {
		from, to int
		d        sim.Time
	}
	var edges []edge
	for i, m := range members {
		for _, q := range m.In {
			if q.from >= n {
				panic(fmt.Sprintf("pdes: queue edge from member %d, group has %d", q.from, n))
			}
			edges = append(edges, edge{q.from, i, sim.Time(q.lookahead)})
		}
	}
	dist := make([][]sim.Time, n)
	for i := range dist {
		dist[i] = make([]sim.Time, n)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = maxTime
			}
		}
	}
	for _, e := range edges {
		if e.d < dist[e.from][e.to] {
			dist[e.from][e.to] = e.d
		}
	}
	for via := 0; via < n; via++ {
		for i := 0; i < n; i++ {
			if dist[i][via] == maxTime {
				continue
			}
			for j := 0; j < n; j++ {
				if d := satAdd(dist[i][via], dist[via][j]); d < dist[i][j] {
					dist[i][j] = d
				}
			}
		}
	}
	horiz := make([][]sim.Time, n)
	for k := range horiz {
		horiz[k] = make([]sim.Time, n)
		for i := range horiz[k] {
			horiz[k][i] = maxTime
		}
	}
	for _, e := range edges {
		for k := 0; k < n; k++ {
			if dist[k][e.from] == maxTime {
				continue
			}
			if h := satAdd(dist[k][e.from], e.d); h < horiz[k][e.to] {
				horiz[k][e.to] = h
			}
		}
	}
	return horiz
}

// Members reports the number of partitions.
func (g *Group) Members() int { return len(g.members) }

// Stats reports cumulative synchronization counters across every Run so
// far. Read only while the group is quiescent.
func (g *Group) Stats() Stats {
	s := g.stats
	s.Events = make([]int64, len(g.members))
	for i, m := range g.members {
		s.Events[i] = m.K.Fired()
	}
	return s
}

// Pending reports the total number of pending events across all
// kernels. Read only while the group is quiescent (after Run, queues
// are always empty: termination requires every queue drained and every
// heap dry).
func (g *Group) Pending() int {
	total := 0
	for _, m := range g.members {
		total += m.K.Pending()
	}
	return total
}

// Run executes rounds until every kernel is dry and every queue empty.
// Member 0 runs on the calling goroutine; the rest run on goroutines
// that live for this Run only, so a group nobody runs again holds no
// goroutine (and through it no kernels, nodes or packet pools) alive.
// Run returns once they have all exited: returning really means the
// group is quiescent, and Stats needs no further synchronization.
func (g *Group) Run() {
	if len(g.members) == 1 {
		g.members[0].K.Run()
		return
	}
	g.wg.Add(len(g.workers))
	for _, w := range g.workers {
		go w()
	}
	g.runMember(0)
	g.wg.Wait()
}

// runMember is the per-member round loop. All members leave the loop in
// the same round (they compute the same global minimum from the same
// post-barrier snapshot), and the final barrier orders every member's
// last reads before the caller's next-run writes.
func (g *Group) runMember(i int) {
	m := g.members[i]
	for {
		for _, q := range m.In {
			q.drain()
		}
		if nt, ok := m.K.NextEventTime(); ok {
			g.next[i] = nt
		} else {
			g.next[i] = maxTime
		}
		g.bar.await()
		t := g.next[0]
		for _, nt := range g.next[1:] {
			if nt < t {
				t = nt
			}
		}
		if i == 0 {
			g.stats.Rounds++
			g.stats.NullMessages += int64(len(g.members))
		}
		if t == maxTime {
			// Terminate: every heap is dry and (because sends happen
			// strictly before the window-closing barrier and drains at
			// round start) every queue is empty. The kernels stopped at
			// their own last local events; resynchronize all clocks to
			// the global last so the driver's next "schedule at Now()"
			// lands at the same virtual time a single kernel would
			// report. The clocks are spread across the members' unequal
			// horizons, but the maximum clock is the globally last
			// event, whose member never ran past it. Three barriers: bounds read
			// before the slots are reused for clocks, clocks published
			// before the max is read, advances done before the caller
			// resumes.
			g.bar.await()
			g.next[i] = m.K.Now()
			g.bar.await()
			now := g.next[0]
			for _, v := range g.next[1:] {
				if v > now {
					now = v
				}
			}
			m.K.AdvanceTo(now)
			g.bar.await()
			return
		}
		h := maxTime
		for k, b := range g.next {
			if hk := satAdd(b, g.horiz[k][i]); hk < h {
				h = hk
			}
		}
		m.K.RunBefore(h)
		g.bar.await()
	}
}

// barrier is a reusable (cyclic) barrier for a fixed party count.
type barrier struct {
	mu    sync.Mutex
	cond  sync.Cond
	n     int
	count int
	gen   uint64
}

func (b *barrier) init(n int) {
	b.n = n
	b.cond.L = &b.mu
}

// await blocks until all n parties have called it, then releases them
// together and resets for the next use.
func (b *barrier) await() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
