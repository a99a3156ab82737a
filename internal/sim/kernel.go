// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives a virtual clock measured in integer nanoseconds.
// Work is expressed either as timed callbacks (Event) or as cooperative
// processes (Proc) that block in virtual time on sleeps and channels.
// At most one process runs at any instant, so simulations are fully
// deterministic and independent of the host scheduler.
//
// # Ordering contract
//
// Every event carries a key (at, seq): its virtual time and a sequence
// number the kernel hands out in scheduling order. Events fire in
// increasing key order — always; equal timestamps fire in scheduling
// order. The structures below decide only how much keeping that order
// costs, never the order itself:
//
//   - The heap: an index-tracked 4-ary min-heap of 16-byte entries. Each
//     entry carries its event's time next to the pointer to the pooled
//     record, so a sift compares times without loading a record; only
//     equal times load the records' seqs.
//     Scheduling, firing and cancelling perform no heap allocation and no
//     interface boxing once the pool is warm; AtFunc carries two raw
//     pointer arguments inside the record instead of a per-event closure.
//   - The vacant root: Step leaves the fired event's root slot empty
//     while its callback runs. The callback's first schedule fills the
//     slot with one sift-down; only if nothing was scheduled does the last
//     element move up, when the queue is next inspected. An event that
//     schedules its successor pays one sift instead of two.
//   - Lanes: a Lane is a FIFO stream of closure-free callbacks whose times
//     never decrease (netsim's arrivals over one link direction). Only its
//     head sits in the heap, under that entry's own key and in a record
//     the lane owns; the rest wait in a ring whose slots are filled and
//     drained in place, so the heap holds one entry per busy lane instead
//     of one per packet in flight.
//   - Reserved keys: Reserve takes the seq an event scheduled now would
//     get without scheduling anything, Passed reports whether that key's
//     turn has come and gone, and Materialize schedules a callback under
//     the key while it has not. An event that would only find nothing to
//     do (netsim's "link free again" with an empty queue) need never exist,
//     and a timer re-armed often (tcpsim's retransmission timer, on every
//     ACK) takes a key per arming but keeps one event, which moves on to
//     the latest key when it fires early.
//   - The tail: Tail schedules a callback at now under the next seq into a
//     one-slot side buffer instead of the heap. It fires like any event —
//     it sets the clock and the current seq and counts in Fired — as soon
//     as its key is the least pending one, which is at once when the
//     event that scheduled it returns and nothing else is pending at now
//     (netsim's delivery at the end of an arrival, and a send from a host
//     with no injection cap). With the root vacant the tail is compared
//     with the root's children, and the root stays vacant for the tail's
//     callback. It never enters the heap; a second Tail while the slot is
//     taken is an ordinary event.
//
// A schedule can also be moved as a whole: Visit walks every pending
// event (lane entries and the tail included) and Shift adds one
// (dt, dseq) to the clock, the seq counters and every pending key. A
// uniform shift keeps every comparison between keys, so the heap stays
// ordered as it is. internal/tcpsim uses the pair to skip whole periods
// of a transfer whose state repeats exactly (see netsim.Snapshot).
//
// The kernel underpins the network model (internal/netsim), the machine
// cost models (internal/machine) and every experiment driver in this
// repository.
package sim

import (
	"fmt"
	"math"
	"slices"
	"time"
	"unsafe"
)

// Time is an absolute virtual timestamp in nanoseconds since the start
// of the simulation.
type Time int64

// Seconds reports the timestamp in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Add returns the timestamp shifted by d. The result saturates at the
// int64 extremes instead of wrapping: Duration already saturates huge
// second counts at 1<<62 ns, and a wrapped negative timestamp would
// make Kernel.At panic with a bogus causality violation.
func (t Time) Add(d time.Duration) Time {
	s := t + Time(d)
	if d >= 0 {
		if s < t {
			return Time(math.MaxInt64)
		}
	} else if s > t {
		return Time(math.MinInt64)
	}
	return s
}

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts a floating-point number of seconds to a
// time.Duration, saturating at 1<<62 ns instead of overflowing for huge
// values and +Inf. Negative inputs, -Inf and NaN map to 0: Go leaves the
// float-to-int conversion of NaN implementation-defined (math.MinInt64
// on amd64), which would otherwise surface as a bogus "scheduled before
// now" panic.
func Duration(seconds float64) time.Duration {
	const maxSec = float64(1<<62) / 1e9
	if seconds > maxSec {
		return time.Duration(1 << 62)
	}
	if !(seconds > 0) {
		return 0
	}
	return time.Duration(seconds * 1e9)
}

func (t Time) String() string {
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// event is a pooled scheduled-callback record. Records are recycled
// after they fire or are cancelled; gen disambiguates a recycled record
// from the schedule a stale Event handle refers to.
//
// The record fits one 64-byte cache line: the closure-free arguments
// are raw pointers (one word each, not two-word interfaces). The tests
// assert the size with unsafe.Sizeof.
type event struct {
	at  Time
	seq uint64
	gen uint64
	fn  func()
	// fn2/a0/a1 are the closure-free callback form: fn2 is typically a
	// package-level func, a0/a1 raw pointers to its context (the
	// callback knows the concrete types it scheduled).
	fn2    func(a0, a1 unsafe.Pointer)
	a0, a1 unsafe.Pointer
	index  int32 // heap index, -1 while pooled, firing or in the tail
	lane   bool  // a Lane's own head record, never pooled
}

// entry is one slot of the heap (and the tail): an event's time inline,
// beside its record, which holds the seq that breaks ties.
type entry struct {
	at Time
	e  *event
}

// less orders entries by key; keys are unique.
func (a *entry) less(b *entry) bool {
	return a.at < b.at || a.at == b.at && a.e.seq < b.e.seq
}

// Event is a handle on a scheduled callback, returned by At/After and
// accepted by Cancel. It is a small value; the zero Event is valid and
// refers to nothing (Cancel ignores it). Handles become inert once the
// event fires or is cancelled — the kernel recycles the underlying
// record, and the generation tag stops stale handles from touching its
// next occupant.
type Event struct {
	e   *event
	gen uint64
}

// Pending reports whether the handle still refers to a scheduled,
// unfired event.
func (ev Event) Pending() bool {
	return ev.e != nil && ev.e.gen == ev.gen
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; create kernels with NewKernel.
type Kernel struct {
	now      Time
	seq      uint64
	cur      uint64        // seq of the event firing now (the last fired)
	heap     []entry       // 4-ary min-heap ordered by (at, seq)
	vacant   bool          // heap[0] is the fired event's slot, not yet refilled
	tail     entry         // the Tail slot; tail.e is nil when empty
	laned    int           // lane entries waiting behind their lane's head
	free     []*event      // recycled event records
	ctl      chan struct{} // handshake: proc -> kernel (parked or exited)
	panicVal any

	// Inline-drive state: while Run is live (running), a parking
	// process drives the event loop on its own goroutine (driving)
	// instead of round-tripping through the kernel goroutine — a process
	// whose own resume is the next event never switches goroutines at
	// all.
	driving *Proc
	running bool

	fired int64 // callbacks executed since creation

	lanes []*Lane // every lane made on this kernel, in creation order
	visit []entry // Visit's scratch: the pending events outside lanes
}

// NewKernel returns a kernel with the clock at zero and no pending
// events.
func NewKernel() *Kernel {
	return &Kernel{ctl: make(chan struct{})}
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// schedule keys record e — one from the pool when e is nil — (t, seq)
// and inserts it into the heap: into the vacant root with one sift-down
// when the event that just fired left it, else at the bottom with a
// sift-up. Scheduling in the past panics: the caller has violated
// causality. Callers set the callback fields afterwards; the heap
// orders by key alone.
func (k *Kernel) schedule(t Time, seq uint64, e *event) *event {
	if t < k.now {
		k.past(t)
	}
	if e == nil {
		e = k.alloc()
	}
	e.at, e.seq = t, seq
	if k.vacant {
		k.vacant = false
		k.siftDown(0, entry{t, e})
	} else {
		k.heap = append(k.heap, entry{})
		k.siftUp(len(k.heap)-1, entry{t, e})
	}
	return e
}

// alloc takes an event record from the pool, or makes one.
func (k *Kernel) alloc() *event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	return &event{}
}

// scheduleNext schedules a record from the pool under the next seq,
// which is consumed only once the schedule is accepted.
func (k *Kernel) scheduleNext(t Time) *event {
	e := k.schedule(t, k.seq+1, nil)
	k.seq++
	return e
}

func (k *Kernel) past(t Time) {
	panic(fmt.Sprintf("sim: event scheduled at %v before now %v", t, k.now))
}

// release recycles a record that has fired or been cancelled. Bumping
// gen invalidates every outstanding handle to the old schedule.
func (k *Kernel) release(e *event) {
	e.gen++
	e.fn = nil
	e.fn2 = nil
	e.a0 = nil
	e.a1 = nil
	e.index = -1
	k.free = append(k.free, e)
}

// At schedules fn to run at virtual time t. Scheduling in the past is an
// error and panics: the caller has violated causality.
func (k *Kernel) At(t Time, fn func()) Event {
	e := k.scheduleNext(t)
	e.fn = fn
	return Event{e: e, gen: e.gen}
}

// After schedules fn to run d after the current virtual time. Negative
// durations are treated as zero.
func (k *Kernel) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return k.At(k.now.Add(d), fn)
}

// AtFunc schedules fn(a0, a1) at virtual time t without a per-event
// closure: fn is typically a package-level function and a0/a1 raw
// pointers to its context (cast back to their concrete types inside
// fn). Carrying one-word pointers instead of two-word interfaces keeps
// the event record inside a single cache line and hot paths that
// schedule per-packet work allocation-free.
func (k *Kernel) AtFunc(t Time, fn func(a0, a1 unsafe.Pointer), a0, a1 unsafe.Pointer) Event {
	e := k.scheduleNext(t)
	e.fn2 = fn
	e.a0 = a0
	e.a1 = a1
	return Event{e: e, gen: e.gen}
}

// AfterFunc is AtFunc relative to the current virtual time. Negative
// durations are treated as zero.
func (k *Kernel) AfterFunc(d time.Duration, fn func(a0, a1 unsafe.Pointer), a0, a1 unsafe.Pointer) Event {
	if d < 0 {
		d = 0
	}
	return k.AtFunc(k.now.Add(d), fn, a0, a1)
}

// Reserve consumes and returns the seq an event scheduled now would get,
// without scheduling anything: (t, Reserve()) is the key an At(t, …) in
// its place would have had. Materialize turns the key into an event
// while Passed reports false; a key never materialized fires nothing and
// is not counted by Fired or Pending.
func (k *Kernel) Reserve() uint64 {
	k.seq++
	return k.seq
}

// Passed reports whether an event keyed (at, seq) would already have
// fired: at is before now, or at is now and seq is below the seq of the
// event currently firing. It is exact in event context — inside a
// callback or a running Proc — which is where a reserved key is
// decided.
func (k *Kernel) Passed(at Time, seq uint64) bool {
	return at < k.now || at == k.now && seq < k.cur
}

// Materialize schedules fn(a0, a1) under the reserved key (at, seq), so
// it fires exactly where an AtFunc(at, …) made at Reserve time would
// have. The key must come from Reserve and must not have passed.
func (k *Kernel) Materialize(at Time, seq uint64, fn func(a0, a1 unsafe.Pointer), a0, a1 unsafe.Pointer) Event {
	if seq == 0 || seq > k.seq || k.Passed(at, seq) {
		panic(fmt.Sprintf("sim: Materialize(%v, %d): key not reserved or already passed (now %v, seq %d)", at, seq, k.now, k.cur))
	}
	e := k.schedule(at, seq, nil)
	e.fn2 = fn
	e.a0 = a0
	e.a1 = a1
	return Event{e: e, gen: e.gen}
}

// Cancel removes a pending event. Cancelling the zero Event, or an
// event that already fired or was already cancelled, is a no-op.
func (k *Kernel) Cancel(ev Event) {
	e := ev.e
	if e == nil || e.gen != ev.gen || e.index < 0 {
		return
	}
	if k.vacant {
		k.refill()
	}
	k.remove(int(e.index))
	k.release(e)
}

// Tail schedules fn(a0, a1) at the current time under the next seq —
// the key AtFunc(k.Now(), …) would give it — without a heap entry: it
// waits in the kernel's tail slot and fires as soon as no pending key is
// less than its own, normally the moment the scheduling event returns.
// Use it for work that ends an event (netsim's delivery at the end of an
// arrival). The callback cannot be cancelled; while the slot holds an
// earlier Tail, this one is scheduled as an ordinary event.
func (k *Kernel) Tail(fn func(a0, a1 unsafe.Pointer), a0, a1 unsafe.Pointer) {
	if k.tail.e != nil {
		k.AtFunc(k.now, fn, a0, a1)
		return
	}
	e := k.alloc()
	e.at = k.now
	e.fn2 = fn
	e.a0 = a0
	e.a1 = a1
	k.seq++
	e.seq = k.seq
	k.tail = entry{k.now, e}
}

// Pending reports the number of events waiting to fire, lane entries
// and the tail included.
func (k *Kernel) Pending() int {
	n := len(k.heap) + k.laned
	if k.vacant {
		n--
	}
	if k.tail.e != nil {
		n++
	}
	return n
}

// next returns the entry of the earliest pending event — the tail's or
// the heap root's, refilling a vacant root first — or nil when none is
// pending.
func (k *Kernel) next() *entry {
	if k.tail.e != nil && k.tailFirst() {
		return &k.tail
	}
	if k.vacant {
		k.refill()
	}
	if len(k.heap) == 0 {
		return nil
	}
	return &k.heap[0]
}

// tailFirst reports whether the tail's key is less than every key in
// the heap. With the root vacant the heap's least key is among the
// root's children, so the root stays vacant for the tail's callback.
func (k *Kernel) tailFirst() bool {
	h := k.heap
	if !k.vacant {
		return len(h) == 0 || k.tail.less(&h[0])
	}
	for j := 1; j < len(h) && j <= 4; j++ {
		if h[j].less(&k.tail) {
			return false
		}
	}
	return true
}

// fire runs the event of x, the entry next returned: the clock moves to
// its time, and a heap root's slot stays vacant for the callback's first
// schedule.
func (k *Kernel) fire(x *entry) {
	e := x.e
	k.now = x.at
	k.cur = e.seq
	if x == &k.tail {
		k.tail.e = nil
	} else {
		k.vacant = true
	}
	k.fired++
	// Capture the callback, then recycle the record *before* running
	// it, so the callback can schedule new events into the warm pool.
	fn, fn2, a0, a1 := e.fn, e.fn2, e.a0, e.a1
	if !e.lane {
		k.release(e)
	}
	if fn != nil {
		fn()
	} else {
		fn2(a0, a1)
	}
	if k.panicVal != nil {
		v := k.panicVal
		k.panicVal = nil
		panic(v)
	}
}

// Step fires the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was fired.
func (k *Kernel) Step() bool {
	x := k.next()
	if x == nil {
		return false
	}
	k.fire(x)
	return true
}

// Run fires events until none remain. It returns the final virtual
// time.
func (k *Kernel) Run() Time {
	k.running = true
	for {
		x := k.next()
		if x == nil {
			break
		}
		k.fire(x)
	}
	k.running = false
	return k.now
}

// Fired reports the number of callbacks this kernel has executed since
// its creation (a reserved key never materialized is not one, and
// neither is an event a Shift moved past: Shift fires nothing). It is a
// deterministic measure of simulation work, independent of host speed:
// the benchmark probes divide by it to price one event, and it is cheap
// enough to maintain unconditionally.
func (k *Kernel) Fired() int64 { return k.fired }

// Seq reports the last seq the kernel handed out (to an event or a
// reserved key); the next schedule gets Seq()+1.
func (k *Kernel) Seq() uint64 { return k.seq }

// Cur reports the seq of the event firing now, or of the last one
// fired: the seq Passed compares a key at Now against.
func (k *Kernel) Cur() uint64 { return k.cur }

// Visit calls fn for every pending event until fn returns false. It
// visits each lane's entries in
// firing order, lane by lane in the order the lanes were made, and then
// the other pending events — the tail and the heap's — in key order, so
// two schedules that hold the same events under the same keys are
// visited in the same order however their heaps are laid out. f is nil
// for a closure event (At, After); a0 and a1 are then nil too. fn must
// not schedule, cancel or fire anything.
func (k *Kernel) Visit(fn func(at Time, seq uint64, f func(a0, a1 unsafe.Pointer), a0, a1 unsafe.Pointer) bool) {
	for _, l := range k.lanes {
		for i := 0; i < l.q.Len(); i++ {
			ent := l.q.slot(i)
			if !fn(ent.at, ent.seq, ent.fn, ent.a0, ent.a1) {
				return
			}
		}
	}
	v := k.visit[:0]
	if k.tail.e != nil {
		v = append(v, k.tail)
	}
	for i, x := range k.heap {
		if i == 0 && k.vacant || x.e.lane {
			continue
		}
		v = append(v, x)
	}
	slices.SortFunc(v, func(a, b entry) int {
		if a.less(&b) {
			return -1
		}
		return 1
	})
	k.visit = v
	more := true
	for i := range v {
		if e := v[i].e; more {
			more = fn(e.at, e.seq, e.fn2, e.a0, e.a1)
		}
		v[i] = entry{} // the scratch must not pin records
	}
}

// Shift moves the clock and the whole schedule forward by dt and the
// seq counter by dseq: Now, Seq, Cur and the key of every pending event
// — heap, tail and lane entries — all gain (dt, dseq), as if the
// schedule had been made that much later. Every comparison between two
// keys, and between a key and (Now, Cur), comes out as before, so the
// heap needs no re-sift and the events fire in the order they would
// have. Keys kept outside the kernel (reserved keys not yet
// materialized) are the caller's to shift. Shift fires nothing, so
// Fired does not count what it skips; dt must not be negative.
func (k *Kernel) Shift(dt Time, dseq uint64) {
	if dt < 0 {
		panic(fmt.Sprintf("sim: Shift by negative time %d", dt))
	}
	k.now += dt
	k.seq += dseq
	k.cur += dseq
	for i := range k.heap {
		if i == 0 && k.vacant {
			continue
		}
		x := &k.heap[i]
		x.at += dt
		x.e.at += dt
		x.e.seq += dseq
	}
	if k.tail.e != nil {
		k.tail.at += dt
		k.tail.e.at += dt
		k.tail.e.seq += dseq
	}
	for _, l := range k.lanes {
		for i := 0; i < l.q.Len(); i++ {
			ent := l.q.slot(i)
			ent.at += dt
			ent.seq += dseq
		}
		l.last += dt
	}
}

// ---- Lanes ----

// Lane is a FIFO stream of closure-free callbacks on one kernel whose
// times never decrease — the arrivals over one direction of a link.
// Each entry keeps the key an AtFunc made in its place would have had,
// so it fires at exactly the same point of the (at, seq) order; only the
// lane's head sits in the heap, and the rest wait in a ring that is
// bounded by what is in flight. Create lanes with Kernel.NewLane.
type Lane struct {
	k    *Kernel
	q    Ring[laneEntry]
	last Time  // time of the newest entry, while q is non-empty
	head event // the record the head entry sits in the heap with
}

type laneEntry struct {
	at     Time
	seq    uint64
	fn     func(a0, a1 unsafe.Pointer)
	a0, a1 unsafe.Pointer
}

// NewLane returns an empty lane on k.
func (k *Kernel) NewLane() *Lane {
	l := &Lane{k: k}
	l.head = event{fn2: laneStep, a0: unsafe.Pointer(l), index: -1, lane: true}
	k.lanes = append(k.lanes, l)
	return l
}

// AtFunc schedules fn(a0, a1) at time t, with the same key and the same
// firing point as Kernel.AtFunc. A t before the lane's newest entry
// would break the lane's order, so that entry goes to the heap as an
// ordinary event instead: the order never depends on the caller.
func (l *Lane) AtFunc(t Time, fn func(a0, a1 unsafe.Pointer), a0, a1 unsafe.Pointer) {
	k := l.k
	switch {
	case l.q.Len() == 0:
		k.schedule(t, k.seq+1, &l.head)
		k.seq++
	case t < l.last:
		k.AtFunc(t, fn, a0, a1)
		return
	default:
		if t < k.now {
			k.past(t)
		}
		k.seq++
		k.laned++
	}
	ent := l.q.push()
	ent.at, ent.seq, ent.fn, ent.a0, ent.a1 = t, k.seq, fn, a0, a1
	l.last = t
}

// laneStep fires a lane's head entry: the next entry takes the head's
// place in the heap under its own key, then the entry's callback runs.
func laneStep(a0, _ unsafe.Pointer) {
	l := (*Lane)(a0)
	k := l.k
	ent := l.q.front()
	fn, b0, b1 := ent.fn, ent.a0, ent.a1
	l.q.drop()
	if l.q.Len() > 0 {
		nx := l.q.front()
		k.schedule(nx.at, nx.seq, &l.head)
		k.laned--
	}
	fn(b0, b1)
}

// ---- 4-ary min-heap of entries, ordered by (at, seq) ----
//
// A 4-ary heap halves the tree depth of the binary container/heap it
// replaced (fewer cache lines touched per sift) and, being concrete,
// avoids the any boxing of heap.Interface. The sifts carry the moving
// entry in a register and write each slot once, updating the record's
// index beside it.

// refill closes a root the fired event's callback left vacant: the last
// entry moves up and sifts down, as a plain pop would have done.
func (k *Kernel) refill() {
	k.vacant = false
	h := k.heap
	last := len(h) - 1
	moved := h[last]
	h[last] = entry{}
	k.heap = h[:last]
	if last > 0 {
		k.siftDown(0, moved)
	}
}

// remove deletes the entry at heap index i, preserving heap order. The
// root must not be vacant.
func (k *Kernel) remove(i int) {
	h := k.heap
	last := len(h) - 1
	h[i].e.index = -1
	moved := h[last]
	h[last] = entry{}
	k.heap = h[:last]
	if i != last {
		k.siftDown(i, moved)
		j := int(moved.e.index)
		k.siftUp(j, k.heap[j])
	}
}

// siftUp places x at slot i or above it.
func (k *Kernel) siftUp(i int, x entry) {
	h := k.heap
	for i > 0 {
		p := (i - 1) >> 2
		if !x.less(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].e.index = int32(i)
		i = p
	}
	h[i] = x
	x.e.index = int32(i)
}

// siftDown places x at slot i or below it. The least child's key is
// kept in registers while its siblings are scanned.
func (k *Kernel) siftDown(i int, x entry) {
	h := k.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m, at := c, h[c].at
		for j := c + 1; j < min(c+4, n); j++ {
			if y := &h[j]; y.at < at || y.at == at && y.e.seq < h[m].e.seq {
				m, at = j, y.at
			}
		}
		if x.at < at || x.at == at && x.e.seq < h[m].e.seq {
			break
		}
		h[i] = h[m]
		h[i].e.index = int32(i)
		i = m
	}
	h[i] = x
	x.e.index = int32(i)
}
