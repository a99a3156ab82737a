package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// FuzzKernelOrder decodes the input into a program — schedules at
// now+{0, 1, a pending event's time, small random}, cancels (events at
// now included), lane pushes in and out of order, reserved keys that are
// materialized or let pass, nested schedules from callbacks and
// processes sleeping 0 or 1 ns, Step / Run / RunUntil, Stop, and
// panicking callbacks followed by a resumed Run — and runs it
// against Kernel and against refKernel, the heap kernel Kernel
// replaced. The two transcripts must be identical: every callback and
// process wake-up with its time, every panic, and after each operation
// Now, Pending, NextEventTime, Fired, Procs and every handle's When and
// Pending.
//
// The reference has no lanes or reserved keys, so it is given their
// meaning: a lane push is an AtFunc, and a reserved key is a sentinel
// event scheduled at Reserve time. The sentinel's firing is the truth
// Passed is checked against; a materialized key turns it into the real
// callback, and a key never materialized counts as fired on neither
// side (the reference's Fired and Pending are corrected for it). Each
// reservation is followed by a guard event at the same time, as netsim's
// arrival follows its link-free key, so an unmaterialized sentinel is
// never the last event a run fires and the clocks agree.
//
// The seed corpus in testdata/fuzz/FuzzKernelOrder (the smallest input
// found for each of those features, plus a few long interleavings)
// replays in every plain go test.
func FuzzKernelOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 512 {
			in = in[:512] // keep one input's simulation small
		}
		want := runProgram(&refSys{k: newRefKernel()}, in)
		got := runProgram(&newSys{k: NewKernel()}, in)
		for i := 0; i < len(want) || i < len(got); i++ {
			var w, g string
			if i < len(want) {
				w = want[i]
			}
			if i < len(got) {
				g = got[i]
			}
			if w != g {
				lo := max(0, i-8)
				t.Fatalf("transcripts diverge at line %d:\nreference: %q\nkernel:    %q\ncontext (reference):\n%s",
					i, w, g, strings.Join(want[lo:min(len(want), i+1)], "\n"))
			}
		}
	})
}

// sys is what a program can do to a kernel; newSys and refSys implement
// it over Kernel and refKernel.
type sys interface {
	now() Time
	at(t Time, fn func())
	atFunc(t Time, fn func())
	lane(i int, t Time, fn func())
	cancel(h int)
	handles() int
	handle(h int) (Time, bool)
	// reserve takes a key at t and schedules guard, unrecorded and
	// uncancellable, at t after it.
	reserve(t Time, guard func()) (res int, seq uint64)
	decide(res int, fn func()) (passed bool)
	step() bool
	run() Time
	runUntil(t Time) Time
	stop()
	pending() int
	next() (Time, bool)
	fired() int64
	procs() int
	spawn(body func(sleep func(time.Duration)))
}

func callThunk(a0, _ unsafe.Pointer) { (*(*func())(a0))() }

type newSys struct {
	k     *Kernel
	lanes [3]*Lane
	evs   []Event
	keys  []struct {
		at  Time
		seq uint64
	}
}

func (s *newSys) now() Time            { return s.k.Now() }
func (s *newSys) at(t Time, fn func()) { s.evs = append(s.evs, s.k.At(t, fn)) }
func (s *newSys) atFunc(t Time, fn func()) {
	s.evs = append(s.evs, s.k.AtFunc(t, callThunk, unsafe.Pointer(&fn), nil))
}
func (s *newSys) lane(i int, t Time, fn func()) {
	if s.lanes[i] == nil {
		s.lanes[i] = s.k.NewLane()
	}
	s.lanes[i].AtFunc(t, callThunk, unsafe.Pointer(&fn), nil)
}
func (s *newSys) cancel(h int)              { s.k.Cancel(s.evs[h]) }
func (s *newSys) handles() int              { return len(s.evs) }
func (s *newSys) handle(h int) (Time, bool) { return s.evs[h].When(), s.evs[h].Pending() }
func (s *newSys) reserve(t Time, guard func()) (int, uint64) {
	seq := s.k.Reserve()
	s.keys = append(s.keys, struct {
		at  Time
		seq uint64
	}{t, seq})
	s.k.At(t, guard)
	return len(s.keys) - 1, seq
}
func (s *newSys) decide(res int, fn func()) bool {
	key := s.keys[res]
	if s.k.Passed(key.at, key.seq) {
		return true
	}
	s.evs = append(s.evs, s.k.Materialize(key.at, key.seq, callThunk, unsafe.Pointer(&fn), nil))
	return false
}
func (s *newSys) step() bool           { return s.k.Step() }
func (s *newSys) run() Time            { return s.k.Run() }
func (s *newSys) runUntil(t Time) Time { return s.k.RunUntil(t) }
func (s *newSys) stop()                { s.k.Stop() }
func (s *newSys) pending() int         { return s.k.Pending() }
func (s *newSys) next() (Time, bool)   { return s.k.NextEventTime() }
func (s *newSys) fired() int64         { return s.k.Fired() }
func (s *newSys) procs() int           { return s.k.Procs() }
func (s *newSys) spawn(body func(func(time.Duration))) {
	s.k.Go("p", func(p *Proc) { body(p.Sleep) })
}

// refSys runs a program on the reference. sentPending counts sentinels
// neither fired nor materialized; sentFired counts those that fired
// unmaterialized — events the kernel never had.
type refSys struct {
	k           *refKernel
	evs         []refHandle
	sentinels   []*sentinel
	sentPending int
	sentFired   int64
}

type sentinel struct {
	h     refHandle
	fired bool
	real  func() // set when materialized
}

func (s *refSys) now() Time            { return s.k.Now() }
func (s *refSys) at(t Time, fn func()) { s.evs = append(s.evs, s.k.At(t, fn)) }
func (s *refSys) atFunc(t Time, fn func()) {
	s.evs = append(s.evs, s.k.AtFunc(t, callThunk, unsafe.Pointer(&fn), nil))
}
func (s *refSys) lane(_ int, t Time, fn func()) {
	s.k.AtFunc(t, callThunk, unsafe.Pointer(&fn), nil)
}
func (s *refSys) cancel(h int)              { s.k.Cancel(s.evs[h]) }
func (s *refSys) handles() int              { return len(s.evs) }
func (s *refSys) handle(h int) (Time, bool) { return s.evs[h].When(), s.evs[h].Pending() }
func (s *refSys) reserve(t Time, guard func()) (int, uint64) {
	sn := &sentinel{}
	sn.h = s.k.At(t, func() {
		if sn.real != nil {
			sn.real()
			return
		}
		sn.fired = true
		s.sentPending--
		s.sentFired++
	})
	s.sentPending++
	s.sentinels = append(s.sentinels, sn)
	s.k.At(t, guard)
	return len(s.sentinels) - 1, sn.h.e.seq
}
func (s *refSys) decide(res int, fn func()) bool {
	sn := s.sentinels[res]
	if sn.fired {
		return true
	}
	sn.real = fn
	s.sentPending--
	s.evs = append(s.evs, sn.h)
	return false
}

// step fires events until one the kernel also has fired: a sentinel
// alone is not a step.
func (s *refSys) step() bool {
	for {
		before := s.k.Fired() - s.sentFired
		if !s.k.Step() {
			return false
		}
		if s.k.Fired()-s.sentFired > before {
			return true
		}
	}
}
func (s *refSys) run() Time            { return s.k.Run() }
func (s *refSys) runUntil(t Time) Time { return s.k.RunUntil(t) }
func (s *refSys) stop()                { s.k.Stop() }
func (s *refSys) pending() int         { return s.k.Pending() - s.sentPending }
func (s *refSys) next() (Time, bool)   { return s.k.NextEventTime() }
func (s *refSys) fired() int64         { return s.k.Fired() - s.sentFired }
func (s *refSys) procs() int           { return s.k.Procs() }
func (s *refSys) spawn(body func(func(time.Duration))) {
	s.k.Go("p", func(p *refProc) { body(p.Sleep) })
}

// program is one run of the decoded input against one sys.
type program struct {
	s        sys
	in       []byte
	pos      int
	ids      int
	log      []string
	laneLast [3]Time
	resv     []bool // decided
	// inEvent is true while a callback or process body runs.
	inEvent bool
}

// The operations. The ones that drive the kernel come last: inside a
// callback or process the opcode is taken modulo opStep.
const (
	opAt = iota
	opAtFunc
	opCancel
	opLane
	opReserve
	opDecide
	opStop
	opPanic
	opSpawn
	opObserve
	opStep
	opRun
	opRunUntil
	opCount
)

func runProgram(s sys, in []byte) []string {
	m := &program{s: s, in: in}
	for m.pos < len(m.in) {
		op := int(m.byte()) % opCount
		m.guard(func() { m.op(op) })
		m.observe(true)
	}
	// Drain, so no process is left parked on a goroutine.
	for i := 0; i < 64 && s.pending() > 0; i++ {
		m.guard(func() { m.logf("drain -> %d", s.run()) })
	}
	m.observe(true)
	return m.log
}

func (m *program) byte() byte {
	if m.pos >= len(m.in) {
		return 0
	}
	b := m.in[m.pos]
	m.pos++
	return b
}

func (m *program) logf(format string, args ...any) {
	m.log = append(m.log, fmt.Sprintf(format, args...))
}

// guard runs a top-level operation and logs a panic out of it.
func (m *program) guard(f func()) {
	defer func() {
		if r := recover(); r != nil {
			m.inEvent = false
			m.logf("panic: %v", r)
		}
	}()
	f()
}

func (m *program) observe(handles bool) {
	nt, ok := m.s.next()
	m.logf("now=%d pending=%d next=%d/%v fired=%d procs=%d", m.s.now(), m.s.pending(), nt, ok, m.s.fired(), m.s.procs())
	if handles {
		var sb strings.Builder
		for h := 0; h < m.s.handles(); h++ {
			w, p := m.s.handle(h)
			fmt.Fprintf(&sb, " %d/%v", w, p)
		}
		m.logf("handles%s", sb.String())
	}
}

// delay draws d for a schedule at now+d: 0, 1, the distance to a
// pending handle's time (equal keys), or a small random value.
func (m *program) delay() time.Duration {
	switch b := m.byte(); b % 4 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		if n := m.s.handles(); n > 0 {
			if w, ok := m.s.handle(int(m.byte()) % n); ok && w >= m.s.now() {
				return w.Sub(m.s.now())
			}
		}
		return 0
	default:
		return time.Duration(m.byte() % 16)
	}
}

// callback returns a fresh event body: it logs its firing, observes, and
// runs up to two nested operations.
func (m *program) callback() func() {
	m.ids++
	id := m.ids
	return func() {
		m.inEvent = true
		m.logf("fire %d @%d", id, m.s.now())
		m.observe(false)
		for n := int(m.byte() % 3); n > 0; n-- {
			m.op(int(m.byte()) % opStep)
		}
		m.inEvent = false
	}
}

func (m *program) op(op int) {
	s := m.s
	switch op {
	case opAt:
		s.at(s.now().Add(m.delay()), m.callback())
	case opAtFunc:
		s.atFunc(s.now().Add(m.delay()), m.callback())
	case opCancel:
		if n := s.handles(); n > 0 {
			s.cancel(int(m.byte()) % n)
		}
	case opLane:
		b := m.byte()
		i := int(b % 3)
		var t Time
		if b&4 != 0 { // in order: at or after the lane's newest entry
			t = max(m.laneLast[i], s.now()).Add(time.Duration(m.byte() % 3))
		} else { // possibly before it
			t = s.now().Add(m.delay())
		}
		m.laneLast[i] = max(m.laneLast[i], t)
		s.lane(i, t, m.callback())
	case opReserve:
		t := s.now().Add(m.delay())
		res, seq := s.reserve(t, m.callback())
		m.resv = append(m.resv, false)
		m.logf("reserve %d @%d seq=%d", res, t, seq)
	case opDecide:
		if !m.inEvent || len(m.resv) == 0 {
			return
		}
		res := int(m.byte()) % len(m.resv)
		if m.resv[res] {
			return
		}
		m.resv[res] = true
		m.logf("reservation %d passed=%v", res, s.decide(res, m.callback()))
	case opStop:
		s.stop()
	case opPanic:
		if m.inEvent {
			m.inEvent = false
			panic(fmt.Sprintf("callback panic at %d", s.now()))
		}
	case opSpawn:
		m.ids++
		id := m.ids
		n := int(m.byte() % 4)
		s.spawn(func(sleep func(time.Duration)) {
			for i := 0; i < n; i++ {
				m.inEvent = true
				m.logf("proc %d.%d @%d", id, i, s.now())
				if m.byte()%2 == 1 {
					m.op(int(m.byte()) % opStep)
				}
				m.inEvent = false
				sleep(time.Duration(m.byte() % 2))
			}
		})
	case opObserve:
		m.observe(false)
	case opStep:
		m.logf("step -> %v", s.step())
	case opRun:
		m.logf("run -> %d", s.run())
	case opRunUntil:
		m.logf("runUntil -> %d", s.runUntil(s.now().Add(m.delay())))
	}
}
