package tcpsim

import (
	"bytes"
	"math"
	"reflect"
	"time"
	"unsafe"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Fast-forward. A window-limited flow alone on its path settles into a
// steady state that repeats exactly every p ACKs: the ACKs of one
// period come at the same times after the period's start and
// acknowledge the same numbers of bytes as those of the period before,
// and the network — every packet in flight, every queue, every pending
// event — is the state one period earlier moved on by one period. Most
// flows repeat from one ACK to the next (p = 1); a host that drains
// slower than its gateway forwards, like the SP2's, spaces its ACKs in
// a pattern a few ACKs long. Durations depend only on packet sizes and
// times are integer nanoseconds, so nothing depends on absolute times
// or sequence numbers; only the end of the transfer (a short last
// segment, the ACK of the last byte) breaks the pattern. Such a period
// need not be simulated again and again: the sender certifies it once
// and jumps the whole simulation over as many periods as it can while
// every segment they would send is full-size. Only the ramp-up and the
// drain are simulated, and the result is the same to the bit.
//
//   - Trigger: each new ACK's signature — its clock step and ACK step
//     from the last new ACK — goes into a ring of the last ring
//     signatures. A period p ≤ ring is a candidate once at least
//     max(wait, p) consecutive new ACKs since the last try each had the
//     signature of the one p ACKs before, with the window at its
//     WindowBytes cap, and all p signatures of the period have the same
//     ACK step; the shortest candidate is tried. wait starts at 1 and
//     doubles, up to one window of ACKs, with every try that does not
//     end in a jump, so a flow that never certifies pays about
//     log2(window) extra snapshots and then one a window, and one that
//     does is tried at its first repeating ACK.
//   - Certificate: a full relative snapshot (netsim.Snapshot plus the
//     sender's own state) at the end of one new ACK must equal the one
//     at the end of the p-th new ACK after it. The sender's part holds
//     its sequence numbers relative to the cumulative ACK, its loss
//     state, each live send stamp's segment and generation, and the
//     timer's pending flag and key seq; it leaves out the RTT estimator
//     (srtt, rttvar), the stamps' times and the timer key's time. Any
//     event or packet that is not the network's or this flow's makes
//     the snapshot fail, so a flow that shares the kernel with other
//     traffic never jumps.
//   - Jump: netsim.Advance moves the kernel and the network, ShiftPacket
//     every packet of the flow, and the sender moves its sequence
//     numbers, stamps the outstanding segments the skipped periods sent
//     and re-keys its timer. Every receiver acknowledges one segment per
//     ACK, so a steady period's ACKs all have one ACK step and move the
//     same number of segments; the trigger and the jump both require it.
//
// What the certificate leaves out never reaches the network: srtt and
// rttvar only set the timer's deadline, and a timer that does not
// expire sends nothing. So the network repeats from the window cap on,
// while the estimator is still settling from the ramp-up's samples, and
// the jump replays the estimator instead of certifying it. Each skipped
// ACK takes the sample the simulation would: its time (the jump's, plus
// whole periods, plus that ACK's offset within the certified period)
// less the send time of the oldest outstanding segment. A segment sent
// before the jump has its stamp in the ring; one sent inside the skip
// was sent exactly a whole number of periods after its counterpart in
// the certified period, whose stamps the jump copies first. Once every
// sample comes from that pattern, the samples repeat every period, and
// once (srtt, rttvar) come back to their value one period before, so
// does everything after: the replay stops there, after about one window
// of ACKs plus the estimator's convergence. The jump is refused, with
// the sender untouched, where the argument fails: a period whose
// segments are not spread evenly over its ACKs, a certified period
// whose stamps have left the ring, a timer armed at the jump that
// expires before the first skipped ACK, or a replayed rto() no longer
// than the period's longest ACK gap, which could expire between two
// ACKs.
//
// The congestion window needs no replay: grow stops it at WindowBytes,
// above which it is dead state (window() caps it, and fast retransmit
// and RTO overwrite it without reading it), and the trigger waits for
// the cap. So a jump costs O(window) plus the estimator's convergence,
// not O(skipped ACKs).
//
// The retransmission timer is the one pending event whose key is not
// periodic: armRTO leaves the event where it is and only reserves a new
// key, so the event's key stays put while the clock moves on, and it is
// left out of the snapshot. That is safe because the event only ever
// sits at or before the timer's current key, and when it fires there
// early it does nothing but re-materialize under the current key. The
// jump shifts it with everything else and, where the replayed rto()
// puts the new key before it, moves it back to the key, which keeps
// that invariant; so the timer expires exactly when it would have, and
// only the count of early firings (Kernel.Fired) differs.

// fastForwardOn enables the fast-forward. It is on in every build; only
// tests turn it off, to compare with the full simulation.
var fastForwardOn = true

// fireRTOPC is fireRTO's code address, to tell the flow's timer from
// other events in a snapshot.
var fireRTOPC = reflect.ValueOf(fireRTO).Pointer()

// ring is how many per-ACK signatures the trigger keeps, and so the
// longest period, in new ACKs, it finds. The SP2's drain repeats every
// 5.
const ring = 8

// signature is what the trigger compares of one new ACK: the clock and
// ACK steps from the new ACK before.
type signature struct {
	dt   sim.Time
	dack int64
}

// fastForward is a sender's steady-state detector.
type fastForward struct {
	// The clock and the cumulative ACK at the last new ACK.
	at  sim.Time
	ack int64
	// sigs holds the signatures of the last ring new ACKs, the n-th at
	// n%ring; n counts them.
	sigs [ring]signature
	n    int64
	// run[p-1] counts the consecutive new ACKs since the last try whose
	// signature was that of the one p before, with the window capped; a
	// period needs a run of max(wait, p).
	run  [ring]int64
	wait int64
	// period is the last period tried, in new ACKs: a holds the
	// snapshot taken at its start, and left counts down the new ACKs
	// until b is due.
	period, left int64
	a, b         snapshot
	// The bytes and segments one period moves the flow on by, while
	// Advance shifts its packets.
	pbytes, psegs int64
	// sent holds the send times of the certified period's segments, in
	// segment order, while a jump replays the estimator.
	sent []sim.Time
	// skipped counts the ACKs the flow's jumps skipped; captures the
	// snapshots it took.
	skipped, captures int64
}

// snapshot is the state of the network and the sender at the end of
// one new ACK.
type snapshot struct {
	net                     netsim.Snapshot
	own                     []byte // the sender's state, relative to ackSeq, ackSeg and the kernel's seq
	ackSeq, ackSeg, nextSeg int64
}

// steady runs at the end of every new ACK: it keeps the signatures,
// takes the certificate's snapshots and jumps when they agree.
func (s *sender) steady() {
	f := &s.ff
	now := s.n.K.Now()
	sig := signature{now - f.at, s.ackSeq - f.ack}
	f.at, f.ack = now, s.ackSeq
	capped := s.cwnd >= float64(s.cfg.WindowBytes)
	var p int64
	for q := int64(1); q <= ring; q++ {
		if !capped || f.n < q || f.sigs[(f.n-q)%ring] != sig {
			f.run[q-1] = 0
			continue
		}
		if f.run[q-1]++; p == 0 && f.run[q-1] >= max(f.wait, q) {
			p = q
		}
	}
	f.sigs[f.n%ring] = sig
	f.n++
	if f.left > 0 {
		if f.left--; f.left == 0 && (!s.capture(&f.b, &f.a) || !s.jump()) {
			s.backoff()
		}
		return
	}
	// Two periods must be left to send: the one the certificate spends
	// and one to skip.
	if p == 0 || !f.evenAcks(p) || s.total-s.nextSeq < 2*p*sig.dack {
		return
	}
	f.run = [ring]int64{}
	if !s.capture(&f.a, nil) {
		s.backoff()
		return
	}
	f.period, f.left = p, p
}

// evenAcks reports whether the last p new ACKs all had the ACK step
// of the last one.
func (f *fastForward) evenAcks(p int64) bool {
	dack := f.sigs[(f.n-1)%ring].dack
	for i := f.n - p; i < f.n-1; i++ {
		if f.sigs[i%ring].dack != dack {
			return false
		}
	}
	return true
}

// backoff doubles the run a period needs after a try that did not end
// in a jump, up to one window of ACKs: a flow that never certifies pays
// O(1) per ACK for trying.
func (s *sender) backoff() {
	f := &s.ff
	f.wait = min(2*f.wait, max(s.window()/int64(s.mss), 1))
}

// capture fills c with the state now and reports whether it is a
// closed world for the flow and, with ref non-nil, the state ref holds.
func (s *sender) capture(c, ref *snapshot) bool {
	s.ff.captures++
	var net *netsim.Snapshot
	if ref != nil {
		net = &ref.net
	}
	if !s.n.Capture(&c.net, s, net) {
		return false
	}
	o := netsim.AppendInts(c.own[:0],
		s.rcvNext-s.ackSeq, s.nextSeq-s.ackSeq, s.rcvSeg-s.ackSeg, s.nextSeg-s.ackSeg,
		int64(s.dupAcks), int64(s.rtx), int64(s.retries), int64(s.tsGen),
		int64(math.Float64bits(s.ssthresh)))
	// The live send stamps, but not their times: a segment outside
	// [ackSeg, nextSeg) is sent again, and stamped, before its slot is
	// read.
	mask := int64(len(s.sendTS) - 1)
	for seg := s.ackSeg; seg < s.nextSeg; seg++ {
		e := &s.sendTS[seg&mask]
		o = netsim.AppendInts(o, e.seq-s.ackSeq, int64(e.gen-s.tsGen))
	}
	// The timer's current key, but not its time; its pending event is
	// left out (see above).
	o = netsim.AppendInts(o, b2i(s.rtoEv.Pending()), int64(s.rtoSeq-s.n.K.Seq()))
	c.own = o
	c.ackSeq, c.ackSeg, c.nextSeg = s.ackSeq, s.ackSeg, s.nextSeg
	return ref == nil || bytes.Equal(c.own, ref.own)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// jump moves the simulation on by as many periods of the certified
// steady state as the transfer has full-size segments left for: every
// segment the skipped periods send lies below total, and no ACK in them
// reaches total. It reports whether it skipped any; when it did not,
// the sender is as it was.
func (s *sender) jump() bool {
	f := &s.ff
	p := f.period
	// The certified period's own ACKs, the ones each skipped period
	// repeats, must have one ACK step and move whole segments.
	f.pbytes, f.psegs = s.ackSeq-f.a.ackSeq, s.ackSeg-f.a.ackSeg
	if !f.evenAcks(p) || f.psegs%p != 0 {
		return false
	}
	k := s.n.K
	period := k.Now() - f.a.net.Now()
	periods := (s.total - s.nextSeq) / f.pbytes
	if period > 0 {
		// Keep the clock far from overflowing.
		periods = min(periods, (math.MaxInt64/2-int64(k.Now()))/int64(period))
	}
	if periods < 1 || !s.replay(periods, period) {
		return false
	}
	dt, dseq := s.n.Advance(&f.a.net, &f.b.net, periods, s)
	db, dg := periods*f.pbytes, periods*f.psegs
	first := s.nextSeg // the first segment sent inside the skip
	s.ackSeq += db
	s.rcvNext += db
	s.nextSeq += db
	s.ackSeg += dg
	s.rcvSeg += dg
	s.nextSeg += dg
	mask := int64(len(s.sendTS) - 1)
	for seg := max(first, s.ackSeg); seg < s.nextSeg; seg++ {
		e := &s.sendTS[seg&mask]
		e.seq, e.ts, e.gen = s.nextSeq-(s.nextSeg-seg)*int64(s.mss), f.sentAt(seg-f.a.nextSeg, period), s.tsGen
	}
	// The last skipped ACK re-armed the timer with the replayed
	// estimate; the pending event must not lie beyond that key.
	s.rtoAt, s.rtoSeq = k.Now().Add(s.rto()), s.rtoSeq+dseq
	s.rtoEvAt += dt
	s.rtoEvSeq += dseq
	if s.rtoEv.Pending() && s.rtoEvAt > s.rtoAt {
		k.Cancel(s.rtoEv)
		s.scheduleRTO()
	}
	f.at, f.ack = k.Now(), s.ackSeq
	f.skipped += periods * p
	return true
}

// replay runs the RTT estimator over the ACKs of periods periods of
// the given length after now, as the simulation would, and reports
// whether the timer stays quiet through them; if it might not, it
// leaves the estimator as it was.
func (s *sender) replay(periods int64, period sim.Time) bool {
	f := &s.ff
	p, mask := f.period, int64(len(s.sendTS)-1)
	// The certified period's stamps, all still in the ring.
	f.sent = f.sent[:0]
	for seg := f.a.nextSeg; seg < s.nextSeg; seg++ {
		e := &s.sendTS[seg&mask]
		if e.seq != s.nextSeq-(s.nextSeg-seg)*int64(s.mss) || e.gen != s.tsGen {
			return false
		}
		f.sent = append(f.sent, e.ts)
	}
	// The ACKs' offsets in the period, and its longest gap.
	var offs [ring]sim.Time
	var off, gap sim.Time
	for r := range p {
		dt := f.sigs[(f.n-p+r)%ring].dt
		off += dt
		offs[r], gap = off, max(gap, dt)
	}
	now := s.n.K.Now()
	if s.rtoAt <= now+offs[0] {
		return false
	}
	srtt, rttvar := s.srtt, s.rttvar
	step, dack := f.psegs/p, f.pbytes/p
	seq, seg := s.ackSeq, s.ackSeg
	start := [2]time.Duration{srtt, rttvar} // at the last period boundary
	for i := range periods * p {
		q, r := i/p, i%p
		at := now + sim.Time(q)*period + offs[r]
		if seg < s.nextSeg {
			if ts, ok := s.lookupSendTS(seq, seg); ok {
				s.rttSample(at.Sub(ts))
			}
		} else {
			s.rttSample(at.Sub(f.sentAt(seg-f.a.nextSeg, period)))
		}
		if s.rto() <= time.Duration(gap) {
			s.srtt, s.rttvar = srtt, rttvar
			return false
		}
		seq, seg = seq+dack, seg+step
		if r == p-1 {
			// A period all of whose samples came from the pattern, and
			// which left the estimator where it found it, repeats.
			if seg-p*step >= s.nextSeg && start == [2]time.Duration{s.srtt, s.rttvar} {
				break
			}
			start = [2]time.Duration{s.srtt, s.rttvar}
		}
	}
	return true
}

// sentAt is the send time of the segment j segments after the certified
// period's first: a whole number of periods after its counterpart in
// the certified period.
func (f *fastForward) sentAt(j int64, period sim.Time) sim.Time {
	n := int64(len(f.sent))
	return f.sent[j%n] + sim.Time(j/n)*period
}

// AppendPacket implements netsim.Protocol: a data segment or an ACK of
// this flow, its Seq and Aux relative to the cumulative ACK.
func (s *sender) AppendPacket(dst []byte, p *netsim.Packet) ([]byte, bool) {
	var tag int64
	switch p.Handler {
	case netsim.Handler(s.dataH):
		tag = 1
	case netsim.Handler(s.ackH):
		tag = 2
	default:
		return dst, false
	}
	return netsim.AppendInts(dst, tag, p.Seq-s.ackSeq, p.Aux-s.ackSeg), true
}

// OwnsEvent implements netsim.Protocol: the flow's one event is its
// retransmission timer, which capture encodes by its current key.
func (s *sender) OwnsEvent(f func(a0, a1 unsafe.Pointer), a0, _ unsafe.Pointer) bool {
	return a0 == unsafe.Pointer(s) && reflect.ValueOf(f).Pointer() == fireRTOPC
}

// ShiftPacket implements netsim.Protocol: a data segment's first byte
// and segment number, or an ACK's cumulative ACK and segment number,
// move on by the periods skipped.
func (s *sender) ShiftPacket(p *netsim.Packet, periods int64) {
	p.Seq += periods * s.ff.pbytes
	p.Aux += periods * s.ff.psegs
}
