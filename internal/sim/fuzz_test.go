package sim

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// FuzzKernelOrder decodes the input into a program — schedules at
// now+{0, 1, a pending event's time, small random}, cancels (events at
// now included), lane pushes in and out of order, reserved keys that are
// materialized or let pass, tails (from callbacks, where they run as the
// event's tail, from processes and from the top level), nested schedules
// from callbacks and processes sleeping 0 or 1 ns, Step / Run, and
// panicking callbacks followed by a resumed Run, and Shifts of the whole
// schedule (at the top level, from callbacks and from processes) —
// and runs it against Kernel and against refKernel, the heap kernel
// Kernel replaced. The two transcripts must be identical: every callback and
// process wake-up with its time, every panic, and after each operation
// Now, Pending, NextEventTime, Fired, Procs and every handle's When and
// Pending.
//
// The reference has no lanes, tails or reserved keys, so it is given
// their meaning: a lane push and a tail are an AtFunc at their time (a
// tail's is now), and a reserved key is a sentinel
// event scheduled at Reserve time. Its shift adds (dt, dseq) to the
// clock, the seq counter and every record; the kernel's side moves the
// reserved keys it holds as netsim moves its link-free keys. The sentinel's firing is the truth
// Passed is checked against; a materialized key turns it into the real
// callback, and a key never materialized counts as fired on neither
// side (the reference's Fired and Pending are corrected for it). Each
// reservation is followed by a guard event at the same time, as netsim's
// arrival follows its link-free key, so an unmaterialized sentinel is
// never the last event a run fires and the clocks agree.
//
// The seed corpus in testdata/fuzz/FuzzKernelOrder (small inputs for
// each of those features, plus a few long interleavings) replays in
// every plain go test. TestKernelOrderCorpusPrograms pins the program
// each corpus file decodes to; TestKernelOrderTailPaths decodes the tail
// and shift inputs and checks they reach the paths they are there for.
func FuzzKernelOrder(f *testing.F) {
	for _, p := range tailPrograms {
		f.Add(p.in)
	}
	for _, p := range shiftPrograms {
		f.Add(p.in)
	}
	f.Fuzz(func(t *testing.T, in []byte) { checkProgram(t, in) })
}

// checkProgram runs in (its first 512 bytes, to keep one input's
// simulation small) against Kernel and refKernel, fails t where the
// transcripts diverge, and returns the transcript.
func checkProgram(t *testing.T, in []byte) []string {
	if len(in) > 512 {
		in = in[:512]
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
	return got
}

// corpusDigests pins what each file in testdata/fuzz/FuzzKernelOrder
// decodes to: the first 8 bytes of the SHA-256 of its transcript, lines
// joined by newlines. Inputs decode by opcode number, so adding,
// removing or reordering an op turns every file into a different
// program. Then re-encode the files — map each byte read as an opcode to
// its op's new number and leave argument bytes as they are — until these
// digests hold again; re-pin only a file whose program used a removed
// op, or when the transcript's wording changes.
var corpusDigests = map[string]string{
	"01cfd22da1e5f435": "769327c083aa740b",
	"1a4e68df771f31f5": "10536d733c097033",
	"1c430ba2b87d5566": "7d37b6c2ba1a1943",
	"29c30fb48b1850c7": "c662c26fd8c23b0c",
	"55cc57e8de6f7821": "4a2a8869fe66fa65",
	"6f1246c0f3087d8f": "4fd67750e99d1582",
	"7031d1c1e7c91700": "f864804721c07ae1",
	"74a8cd2b6826b7ec": "6c73fc724fc2a5dd",
	"78d8cccdaa07ed64": "145913e01ff23339",
	"79e9c8a2bdae1591": "e7be46696c0db227",
	"7a9cc305730c9d15": "6ce446553769713b",
	"9c893777906471c3": "be0757e4b6643191",
	"c1e7b1cdb8964c34": "0438ab0b411f33d8",
	"ca3385c17f69bf32": "1a8920efb8b98c63",
	"d28ecd184ca6ebd4": "db0ba58c04b9d862",
	"d4e9b5645a123c85": "e08b258015e99371",
	"e5187035e80721f1": "4ef41c71352929f0",
	"f35e37c0e30ffd2e": "e443db87fe5c5c41",
	"f6b68f42eaeb833d": "158c8f242a428e98",
}

// TestKernelOrderCorpusPrograms checks every corpus file still decodes
// to the program it was added as.
func TestKernelOrderCorpusPrograms(t *testing.T) {
	for name, want := range corpusDigests {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzKernelOrder", name))
		if err != nil {
			t.Fatal(err)
		}
		// The file is "go test fuzz v1" and one []byte("...") line.
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		arg, ok := strings.CutPrefix(arg, "[]byte(")
		in, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus file: %q", name, raw)
		}
		sum := sha256.Sum256([]byte(strings.Join(checkProgram(t, []byte(in)), "\n")))
		if got := fmt.Sprintf("%x", sum[:8]); got != want {
			t.Errorf("%s decodes to a different program: transcript digest %s, want %s", name, got, want)
		}
	}
}

// tailPrograms are seed inputs for the tail paths, each with lines its
// transcript must contain, in order, to show it took the path it is
// named for. (Decoding: one byte per top-level opcode, modulo opCount;
// a callback reads a count modulo 3 and that many opcodes modulo
// opStep.)
var tailPrograms = []struct {
	name string
	in   []byte
	want []string
}{
	// Event 1 at 0 leaves a tail and returns; with event 2 pending at 5
	// the tail runs at once, with the root vacant, before event 2.
	{"tail-run callback with the root vacant",
		[]byte{opAt, 0, opAt, 3, 5, opRun, 2, opTail, opObserve, 0, 0},
		[]string{"fire 1 @0", "tail in event=true", "fire 3 @0", "now=0 pending=1 next=5/true fired=2 procs=0", "fire 2 @5", "run -> 5"}},
	// Event 1's tail leaves a tail of its own, which runs too, both
	// before event 2 at 9.
	{"tail left by a tail-run callback",
		[]byte{opAt, 0, opAt, 3, 9, opRun, 1, opTail, 1, opTail, 0, 0},
		[]string{"fire 1 @0", "tail in event=true", "fire 3 @0", "tail in event=true", "fire 4 @0", "now=0 pending=1 next=9/true fired=3 procs=0", "fire 2 @9", "run -> 9"}},
	// Event 2, scheduled at 0 before event 1's tail, keeps its turn:
	// with the root vacant it is among the root's children.
	{"tail behind an earlier key at now",
		[]byte{opAt, 0, opAt, 0, opRun, 1, opTail, 0, 0},
		[]string{"fire 1 @0", "tail in event=true", "fire 2 @0", "fire 3 @0"}},
	// Top-level tails: the first takes the slot, the second (slot taken)
	// is an ordinary event, and Step fires them one at a time, in key
	// order, before event 3 scheduled after them at the same time.
	{"tails outside events",
		[]byte{opTail, opTail, opAt, 0, opStep, 0, opStep, 0, opRun, 0},
		[]string{"tail in event=false", "tail in event=false", "fire 1 @0", "step -> true", "fire 2 @0", "step -> true", "fire 3 @0"}},
	// A process leaves a tail before it sleeps: the tail runs before the
	// process's wake-up event at the same time.
	{"tail from a process",
		[]byte{opSpawn, 2, opRun, 1, opTail, 0, 0, 0, 0},
		[]string{"proc 1.0 @0", "tail in event=true", "fire 2 @0", "proc 1.1 @0"}},
}

// shiftPrograms are seed inputs for Shift, in the same form: a shift
// must move the tail, lane entries, reserved keys and a process's
// wake-up with everything else.
var shiftPrograms = []struct {
	name string
	in   []byte
	want []string
}{
	// Event 1 leaves a tail and shifts by (1, 1): the tail runs at 1,
	// still before event 2, now at 6.
	{"shift with the tail pending",
		[]byte{opAt, 0, opAt, 3, 5, opRun, 2, opTail, opShift, 1, 1, 0, 0},
		[]string{"fire 1 @0", "tail in event=true", "shift 1/1 in event=true", "fire 3 @1", "fire 2 @6"}},
	// Two lane entries at 1 and 3 and a key reserved at 2 (its guard,
	// event 3, after it) move by 2; materialized by the first entry,
	// the key fires at 4 before its guard, and the second entry at 5.
	{"shift with lane entries and a reserved key",
		[]byte{opLane, 4, 1, opLane, 4, 2, opReserve, 3, 2, opShift, 2, 1, opRun, 1, opDecide, 0, 0, 0, 0, 0},
		[]string{"reserve 0 @2 seq=3", "shift 2/1 in event=false", "fire 1 @3", "reservation 0 passed=false", "fire 4 @4", "fire 3 @4", "fire 2 @5"}},
	// Two lanes, the second with two entries behind its head, move by
	// 2: the entry behind the head keeps its place too.
	{"shift with two lanes",
		[]byte{opLane, 4, 1, opLane, 5, 2, opLane, 5, 1, opShift, 2, 0, opRun, 0, 0, 0, 0},
		[]string{"shift 2/0 in event=false", "fire 1 @3", "fire 2 @4", "fire 3 @5", "run -> 5"}},
	// A process shifts by 3 before it sleeps: it wakes at 3.
	{"shift from a process",
		[]byte{opSpawn, 2, opAt, 1, opRun, 1, opShift, 3, 2, 0, 1, opCancel, 0, 0, 0},
		[]string{"proc 1.0 @0", "shift 3/2 in event=true", "proc 1.1 @3"}},
	// Event 1 cancels event 3 and shifts with the root vacant.
	{"shift after a cancel with the root vacant",
		[]byte{opAt, 0, opAt, 1, opAt, 1, opRun, 2, opCancel, 2, opShift, 1, 2, 0, 0},
		[]string{"fire 1 @0", "shift 1/2 in event=true", "fire 2 @2"}},
}

// TestKernelOrderTailPaths runs the tail and shift seed inputs and
// checks each transcript reaches what its input is there for.
func TestKernelOrderTailPaths(t *testing.T) {
	for _, p := range append(tailPrograms[:len(tailPrograms):len(tailPrograms)], shiftPrograms...) {
		t.Run(p.name, func(t *testing.T) {
			log := checkProgram(t, p.in)
			i := 0
			for _, line := range log {
				if i < len(p.want) && line == p.want[i] {
					i++
				}
			}
			if i < len(p.want) {
				t.Errorf("transcript lacks %q (in order):\n%s", p.want[i], strings.Join(log, "\n"))
			}
		})
	}
}

// sys is what a program can do to a kernel; newSys and refSys implement
// it over Kernel and refKernel.
type sys interface {
	now() Time
	at(t Time, fn func())
	atFunc(t Time, fn func())
	lane(i int, t Time, fn func())
	tail(fn func())
	cancel(h int)
	handles() int
	handle(h int) (Time, bool)
	// reserve takes a key at t and schedules guard, unrecorded and
	// uncancellable, at t after it.
	reserve(t Time, guard func()) (res int, seq uint64)
	decide(res int, fn func()) (passed bool)
	step() bool
	run() Time
	pending() int
	next() (Time, bool)
	fired() int64
	procs() int
	spawn(body func(sleep func(time.Duration)))
	// shift moves the clock, the seq counter and every pending key by
	// (dt, dseq), reserved keys included.
	shift(dt Time, dseq uint64)
}

func callThunk(a0, _ unsafe.Pointer) { (*(*func())(a0))() }

type newSys struct {
	k     *Kernel
	live  int // processes spawned and not yet returned
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
func (s *newSys) tail(fn func())            { s.k.Tail(callThunk, unsafe.Pointer(&fn), nil) }
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
func (s *newSys) step() bool         { return s.k.Step() }
func (s *newSys) run() Time          { return s.k.Run() }
func (s *newSys) pending() int       { return s.k.Pending() }
func (s *newSys) next() (Time, bool) { return s.k.NextEventTime() }
func (s *newSys) fired() int64       { return s.k.Fired() }
func (s *newSys) procs() int         { return s.live }
func (s *newSys) spawn(body func(func(time.Duration))) {
	countGo(s.k, &s.live, "p", func(p *Proc) { body(p.Sleep) })
}

// shift moves the reserved keys with the kernel, as their owner must.
func (s *newSys) shift(dt Time, dseq uint64) {
	s.k.Shift(dt, dseq)
	for i := range s.keys {
		s.keys[i].at += dt
		s.keys[i].seq += dseq
	}
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
func (s *refSys) tail(fn func()) {
	s.k.AtFunc(s.k.Now(), callThunk, unsafe.Pointer(&fn), nil)
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
func (s *refSys) run() Time          { return s.k.Run() }
func (s *refSys) pending() int       { return s.k.Pending() - s.sentPending }
func (s *refSys) next() (Time, bool) { return s.k.NextEventTime() }
func (s *refSys) fired() int64       { return s.k.Fired() - s.sentFired }
func (s *refSys) procs() int         { return s.k.Procs() }
func (s *refSys) spawn(body func(func(time.Duration))) {
	s.k.Go("p", func(p *refProc) { body(p.Sleep) })
}
func (s *refSys) shift(dt Time, dseq uint64) { s.k.shift(dt, dseq) }

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
	opPanic
	opSpawn
	opObserve
	opTail
	opShift
	opStep
	opRun
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
	case opTail:
		m.logf("tail in event=%v", m.inEvent)
		s.tail(m.callback())
	case opShift:
		dt, dseq := Time(m.byte()%4), uint64(m.byte()%3)
		m.logf("shift %d/%d in event=%v", dt, dseq, m.inEvent)
		s.shift(dt, dseq)
		for i := range m.laneLast {
			m.laneLast[i] += dt
		}
	case opStep:
		m.logf("step -> %v", s.step())
	case opRun:
		m.logf("run -> %d", s.run())
	}
}

// When reports the virtual time the event is scheduled for, or zero if
// the handle no longer refers to a pending event.
func (ev Event) When() Time {
	if ev.e == nil || ev.e.gen != ev.gen {
		return 0
	}
	return ev.e.at
}

// NextEventTime reports the timestamp of the earliest pending event.
// The second result is false when no events are pending. It only looks:
// a vacant root stays vacant (its least key is among the root's
// children), so observing from inside a callback leaves the kernel on
// the path it was on.
func (k *Kernel) NextEventTime() (Time, bool) {
	var least *entry
	if k.tail.e != nil {
		least = &k.tail
	}
	lo, hi := 0, min(1, len(k.heap))
	if k.vacant {
		lo, hi = 1, min(5, len(k.heap))
	}
	for j := lo; j < hi; j++ {
		if least == nil || k.heap[j].less(least) {
			least = &k.heap[j]
		}
	}
	if least == nil {
		return 0, false
	}
	return least.at, true
}
