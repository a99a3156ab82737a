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
// steady state that repeats exactly from one ACK to the next: every ACK
// comes the same time after the one before and acknowledges the same
// number of bytes, and the whole simulation — every packet in flight,
// every queue, every pending event — is the state one ACK earlier moved
// on by one period. Durations depend only on packet sizes and times are
// integer nanoseconds, so nothing depends on absolute times or sequence
// numbers; only the end of the transfer (a short last segment, the ACK
// of the last byte) breaks the pattern. Such a period need not be
// simulated again and again: the sender certifies it once and jumps
// the whole simulation over as many periods as it can while every
// segment they would send is full-size. Only the ramp-up and the drain
// are simulated, and the result is the same to the bit.
//
//   - Trigger: a cheap per-ACK signature — the same clock step and ACK
//     step as the last new ACK, srtt and rttvar unchanged, the window at
//     its WindowBytes cap in congestion avoidance (a new ACK has just
//     cleared dupAcks) — must hold for one window's worth of ACKs.
//   - Certificate: a full relative snapshot (netsim.Snapshot plus the
//     sender's own state) at the end of one new ACK must equal the one
//     at the end of the next. Any event or packet that is not the
//     network's or this flow's makes the snapshot fail, so a flow that
//     shares the kernel with other traffic never jumps.
//   - Jump: netsim.Advance moves the kernel and the network, ShiftPacket
//     every packet of the flow, and the sender moves its sequence
//     numbers, send-timestamp ring and timer keys; the congestion window
//     repeats its per-ACK update once per skipped period.
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

// fastForward is a sender's steady-state detector.
type fastForward struct {
	// The signature of the last new ACK: the clock and the cumulative
	// ACK at it, the steps to them from the one before, and the RTT
	// estimate after it.
	at           sim.Time
	ack          int64
	dt           sim.Time
	dack         int64
	srtt, rttvar time.Duration
	// streak counts consecutive new ACKs with an unchanged signature;
	// armed is set while a holds the snapshot taken at the last one.
	streak int64
	armed  bool
	a, b   snapshot
	// The bytes and segments one period moves the flow on by, while
	// Advance shifts its packets.
	pbytes, psegs int64
	// skipped counts the periods the flow's jumps skipped.
	skipped int64
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

// steady runs at the end of every new ACK: it keeps the signature,
// takes the certificate's snapshots and jumps when they agree.
func (s *sender) steady() {
	f := &s.ff
	now := s.n.K.Now()
	dt, dack := now-f.at, s.ackSeq-f.ack
	same := dt == f.dt && dack == f.dack && s.srtt == f.srtt && s.rttvar == f.rttvar &&
		s.cwnd >= s.ssthresh && s.cwnd >= float64(s.cfg.WindowBytes)
	f.at, f.ack, f.dt, f.dack, f.srtt, f.rttvar = now, s.ackSeq, dt, dack, s.srtt, s.rttvar
	if !same {
		f.streak, f.armed = 0, false
		return
	}
	if f.armed {
		f.streak, f.armed = 0, false
		if s.capture(&f.b) && f.a.same(&f.b) {
			s.jump()
		}
		return
	}
	f.streak++
	// A failed snapshot waits for another window of ACKs, so a flow
	// that never certifies pays O(1) per ACK for trying. Two periods
	// must be left to send: the one the certificate spends and one to
	// skip.
	if f.streak >= s.window()/int64(s.mss) && (s.total-s.nextSeq)/dack >= 2 {
		f.streak = 0
		f.armed = s.capture(&f.a)
	}
}

// capture fills c with the state now and reports whether it is a
// closed world for the flow.
func (s *sender) capture(c *snapshot) bool {
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
// reaches total.
func (s *sender) jump() {
	f := &s.ff
	f.pbytes, f.psegs = s.ackSeq-f.a.ackSeq, s.ackSeg-f.a.ackSeg
	periods := (s.total - s.nextSeq) / f.pbytes
	if dt := s.n.K.Now() - f.a.net.Now(); dt > 0 {
		// Keep the clock far from overflowing.
		periods = min(periods, (math.MaxInt64/2-int64(s.n.K.Now()))/int64(dt))
	}
	if periods < 1 {
		return
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
	for range periods {
		s.grow(f.pbytes)
	}
	f.at, f.ack = s.n.K.Now(), s.ackSeq
	f.skipped += periods
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
