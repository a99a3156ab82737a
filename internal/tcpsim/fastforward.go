package tcpsim

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"time"
	"unsafe"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Fast-forward. A window-limited flow alone on its path settles into a
// steady state that repeats exactly every p ACKs: the ACKs of one
// period come at the same times after the period's start and
// acknowledge the same numbers of bytes as those of the period before,
// and the whole simulation — every packet in flight, every queue, every
// pending event — is the state one period earlier moved on by one
// period. Most flows repeat from one ACK to the next (p = 1); a host
// that drains slower than its gateway forwards, like the SP2's, spaces
// its ACKs in a pattern a few ACKs long. Durations depend only on
// packet sizes and times are integer nanoseconds, so nothing depends on
// absolute times or sequence numbers; only the end of the transfer (a
// short last segment, the ACK of the last byte) breaks the pattern.
// Such a period need not be simulated again and again: the sender
// certifies it once and jumps the whole simulation over as many periods
// as it can while every segment they would send is full-size. Only the
// ramp-up and the drain are simulated, and the result is the same to
// the bit.
//
//   - Trigger: each new ACK's signature — its clock step and ACK step
//     from the last new ACK, srtt and rttvar after it — goes into a ring
//     of the last ring signatures. A period p ≤ ring is a candidate
//     once at least max(wait, p) consecutive new ACKs since the last
//     try each had the signature of the one p ACKs before, with the
//     window at its WindowBytes cap in congestion avoidance; the
//     shortest candidate is tried. wait starts at 1 and doubles, up to
//     one window of ACKs, with every try that does not end in a jump, so
//     a flow that never certifies pays about log2(window) extra
//     snapshots and then one a window, and one that does is tried at
//     its first repeating ACK.
//   - Certificate: a full relative snapshot (netsim.Snapshot plus the
//     sender's own state) at the end of one new ACK must equal the one
//     at the end of the p-th new ACK after it. Any event or packet that
//     is not the network's or this flow's makes the snapshot fail, so a
//     flow that shares the kernel with other traffic never jumps.
//   - Jump: netsim.Advance moves the kernel and the network, ShiftPacket
//     every packet of the flow, and the sender moves its sequence
//     numbers, send-timestamp ring and timer keys; the congestion window
//     repeats its per-ACK update once per skipped ACK, with the ACK step
//     of that ACK's phase, in phase order.
//
// The retransmission timer is the one pending event whose key is not
// periodic: armRTO leaves the event where it is and only reserves a new
// key, so the event's key stays put while the clock moves on, and it is
// left out of the snapshot. That is safe because the event only ever
// sits at or before the timer's current key, and when it fires there
// early it does nothing but re-materialize under the current key. Moved
// by the same shift as everything else it keeps that invariant, so the
// timer expires exactly when it would have; only the count of such
// early firings (Kernel.Fired) differs.

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
// ACK steps from the new ACK before, and the RTT estimate after it.
type signature struct {
	dt           sim.Time
	dack         int64
	srtt, rttvar time.Duration
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
	// skipped counts the ACKs the flow's jumps skipped; captures the
	// snapshots it took.
	skipped, captures int64
}

// snapshot is the state of the network and the sender at the end of
// one new ACK.
type snapshot struct {
	net            netsim.Snapshot
	own            []byte // the sender's state, relative to ackSeq, ackSeg and the clock
	ackSeq, ackSeg int64
}

func (c *snapshot) same(o *snapshot) bool {
	return c.net.Same(&o.net) && bytes.Equal(c.own, o.own)
}

// steady runs at the end of every new ACK: it keeps the signatures,
// takes the certificate's snapshots and jumps when they agree.
func (s *sender) steady() {
	f := &s.ff
	now := s.n.K.Now()
	sig := signature{now - f.at, s.ackSeq - f.ack, s.srtt, s.rttvar}
	f.at, f.ack = now, s.ackSeq
	capped := s.cwnd >= s.ssthresh && s.cwnd >= float64(s.cfg.WindowBytes)
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
		if f.left--; f.left == 0 && (!s.capture(&f.b) || !f.a.same(&f.b) || !s.jump()) {
			s.backoff()
		}
		return
	}
	// Two periods must be left to send: the one the certificate spends
	// and one to skip.
	if p == 0 || s.total-s.nextSeq < 2*f.phaseBytes(p) {
		return
	}
	f.run = [ring]int64{}
	if !s.capture(&f.a) {
		s.backoff()
		return
	}
	f.period, f.left = p, p
}

// phaseBytes sums the ACK steps of the last p new ACKs.
func (f *fastForward) phaseBytes(p int64) int64 {
	var b int64
	for i := f.n - p; i < f.n; i++ {
		b += f.sigs[i%ring].dack
	}
	return b
}

// backoff doubles the run a period needs after a try that did not end
// in a jump, up to one window of ACKs: a flow that never certifies pays
// O(1) per ACK for trying.
func (s *sender) backoff() {
	f := &s.ff
	f.wait = min(2*f.wait, max(s.window()/int64(s.mss), 1))
}

// capture fills c with the state now and reports whether it is a
// closed world for the flow.
func (s *sender) capture(c *snapshot) bool {
	s.ff.captures++
	if !s.n.Capture(&c.net, s) {
		return false
	}
	k := s.n.K
	now, seq := k.Now(), k.Seq()
	o := netsim.AppendInts(c.own[:0],
		s.rcvNext-s.ackSeq, s.nextSeq-s.ackSeq, s.rcvSeg-s.ackSeg, s.nextSeg-s.ackSeg,
		int64(s.dupAcks), int64(s.rtx), int64(s.retries), int64(s.tsGen),
		int64(s.srtt), int64(s.rttvar), int64(math.Float64bits(s.ssthresh)))
	// The live send timestamps: a segment outside [ackSeg, nextSeg) is
	// sent again, and stamped, before its slot is read.
	mask := int64(len(s.sendTS) - 1)
	for seg := s.ackSeg; seg < s.nextSeg; seg++ {
		e := &s.sendTS[seg&mask]
		o = netsim.AppendInts(o, e.seq-s.ackSeq, int64(e.ts-now), int64(e.gen-s.tsGen))
	}
	// The timer's current key; its pending event is left out (see
	// above).
	o = netsim.AppendInts(o, b2i(s.rtoEv.Pending()), int64(s.rtoAt-now), int64(s.rtoSeq-seq))
	c.own = o
	c.ackSeq, c.ackSeg = s.ackSeq, s.ackSeg
	return true
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
// reaches total. It reports whether it skipped any.
func (s *sender) jump() bool {
	f := &s.ff
	p := f.period
	f.pbytes, f.psegs = s.ackSeq-f.a.ackSeq, s.ackSeg-f.a.ackSeg
	periods := (s.total - s.nextSeq) / f.pbytes
	if dt := s.n.K.Now() - f.a.net.Now(); dt > 0 {
		// Keep the clock far from overflowing.
		periods = min(periods, (math.MaxInt64/2-int64(s.n.K.Now()))/int64(dt))
	}
	if periods < 1 {
		return false
	}
	dt, dseq := s.n.Advance(&f.a.net, &f.b.net, periods, s)
	db, dg := periods*f.pbytes, periods*f.psegs
	s.ackSeq += db
	s.rcvNext += db
	s.nextSeq += db
	s.ackSeg += dg
	s.rcvSeg += dg
	s.nextSeg += dg
	// Segment i's stamp lives in slot i&(len-1): rotate the ring with
	// the segment numbers, then move the stamps themselves.
	ts := s.sendTS
	r := int(dg & int64(len(ts)-1))
	slices.Reverse(ts)
	slices.Reverse(ts[:r])
	slices.Reverse(ts[r:])
	for i := range ts {
		ts[i].seq += db
		ts[i].ts += dt
	}
	s.rtoAt += dt
	s.rtoSeq += dseq
	s.rtoEvAt += dt
	s.rtoEvSeq += dseq
	// The skipped ACKs repeat the certified period's, phase by phase.
	for range periods {
		for i := f.n - p; i < f.n; i++ {
			s.grow(f.sigs[i%ring].dack)
		}
	}
	f.at, f.ack = s.n.K.Now(), s.ackSeq
	f.skipped += periods * p
	return true
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
