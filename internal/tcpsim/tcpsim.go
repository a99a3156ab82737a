// Package tcpsim models TCP bulk transfers over the internal/netsim
// packet network: slow start, congestion avoidance, cumulative ACKs,
// fast retransmit and RTO-based go-back-N recovery. The model's purpose
// is faithful *throughput shaping* — window limits, MTU effects (the
// paper's 64 KByte MTU vs. Classical-IP defaults), bandwidth-delay
// products over the 100 km WAN, and the interaction with gateway and
// host-I/O bottlenecks — not byte-accurate protocol emulation.
package tcpsim

import (
	"fmt"
	"time"
	"unsafe"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// HeaderBytes is the TCP/IP header size assumed for every segment.
const HeaderBytes = 40

// AckBytes is the wire size of a pure ACK at the network layer.
const AckBytes = 40

// Config tunes a Transfer.
type Config struct {
	// MSS overrides the maximum segment size. Zero derives it from
	// the path MTU minus HeaderBytes.
	MSS int
	// WindowBytes is the send/receive window (socket buffer). Zero
	// defaults to 1 MiB — a typical well-tuned 1999 configuration.
	// A window smaller than one segment is clamped up to one MSS at
	// send time (a real stack still sends one segment), so tiny
	// socket buffers degrade to stop-and-wait instead of stalling.
	WindowBytes int
	// InitialCwndSegs is the initial congestion window in segments
	// (default 2).
	InitialCwndSegs int
	// RTOMin floors the retransmission timeout (default 200 ms).
	RTOMin time.Duration
	// MaxRetries bounds consecutive RTO retransmissions of the same
	// data before the transfer errors out (default 8).
	MaxRetries int
}

func (c *Config) fill() {
	if c.WindowBytes == 0 {
		c.WindowBytes = 1 << 20
	}
	if c.InitialCwndSegs == 0 {
		c.InitialCwndSegs = 2
	}
	if c.RTOMin == 0 {
		c.RTOMin = 200 * time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
}

// Result reports the outcome of a Transfer.
type Result struct {
	Bytes         int64
	Duration      time.Duration
	ThroughputBps float64 // goodput: payload bits per second
	MSS           int
	Retransmits   int
	SRTT          time.Duration // smoothed RTT estimate at completion
}

func (r Result) String() string {
	return fmt.Sprintf("%d bytes in %v = %.1f Mbit/s (mss %d, %d rtx)",
		r.Bytes, r.Duration.Round(time.Microsecond), r.ThroughputBps/1e6, r.MSS, r.Retransmits)
}

// tsEntry is one slot of the send-timestamp ring buffer. A slot is
// valid for sequence seq only while gen matches the sender's current
// go-back-N generation; bumping the generation invalidates every slot
// at once, which is what the old map's clear() did, without the O(n)
// wipe or the per-segment map insert.
type tsEntry struct {
	seq int64
	ts  sim.Time
	gen uint32
}

// dataPath and ackPath give the sender two distinct netsim.Handler
// identities without allocating per-packet closures. A data segment
// carries its first byte in Seq and its segment number in Aux (its end
// is Seq plus the payload); a pure ACK carries the cumulative ACK in Seq
// and the number of the segment starting there in Aux.
type dataPath struct{ s *sender }

func (h dataPath) HandleDeliver(p *netsim.Packet) {
	h.s.onDataArrive(p.Seq, p.Seq+int64(p.Bytes-HeaderBytes), p.Aux)
}
func (h dataPath) HandleDrop(*netsim.Packet) {} // recovered by RTO

type ackPath struct{ s *sender }

func (h ackPath) HandleDeliver(p *netsim.Packet) { h.s.onAck(p.Seq, p.Aux) }
func (h ackPath) HandleDrop(*netsim.Packet)      {} // cumulative ACKs are redundant

type sender struct {
	n        *netsim.Network
	src, dst netsim.NodeID
	cfg      Config
	total    int64

	mss      int
	ackSeq   int64 // cumulative bytes acknowledged (sender view)
	rcvNext  int64 // highest contiguous byte received (receiver view)
	nextSeq  int64 // next byte to send
	ackSeg   int64 // segment numbers of ackSeq, rcvNext and nextSeq:
	rcvSeg   int64 // segment i starts at byte i*mss; they travel in
	nextSeg  int64 // the packets, so no one divides
	cwnd     float64
	ssthresh float64
	dupAcks  int
	rtx      int
	retries  int
	rtos     int64 // retransmission timeouts fired, the last one included

	srtt   time.Duration
	rttvar time.Duration
	// sendTS rings over the outstanding window: a power-of-two ring in
	// which segment number i has slot i&(len-1). Segments are always
	// mss-aligned (cumulative ACKs land on segment boundaries, and
	// go-back-N rewinds to one), so live slots never collide.
	sendTS []tsEntry
	tsGen  uint32

	dataH dataPath
	ackH  ackPath

	ff fastForward

	// The retransmission timer is due at the key (rtoAt, rtoSeq) the
	// last armRTO reserved. rtoEv is its one pending event, keyed
	// (rtoEvAt, rtoEvSeq): that key or an earlier one an older armRTO
	// took, in which case the event moves itself on when it fires.
	rtoEv    sim.Event
	rtoAt    sim.Time
	rtoSeq   uint64
	rtoEvAt  sim.Time
	rtoEvSeq uint64

	done   bool
	start  sim.Time
	finish sim.Time
	err    error

	// handle is the caller-facing Flow, allocated together with the
	// sender so a pooled sender brings its handle along; released
	// guards against double-Release.
	handle   Flow
	released bool
}

// Transfer simulates a one-directional TCP bulk transfer of nbytes from
// src to dst and runs the kernel until it completes (or stalls). Other
// traffic already scheduled on the kernel proceeds concurrently. For
// several simultaneous transfers, use Start + WaitAll.
func Transfer(n *netsim.Network, src, dst netsim.NodeID, nbytes int64, cfg Config) (Result, error) {
	f, err := Start(n, src, dst, nbytes, cfg)
	if err != nil {
		return Result{}, err
	}
	if err := WaitAll(n, f); err != nil {
		return Result{}, err
	}
	res, err := f.Result()
	if err == nil {
		// The handle never escapes and the kernel has run dry, so the
		// flow state can go straight back to the pool.
		f.Release()
	}
	return res, err
}

// window reports the current effective window in bytes, never less
// than one segment: with WindowBytes below the MSS (an 8 KiB socket
// buffer over the default 9180-byte MTU, say) the admission check in
// pump could otherwise never pass and the flow would silently stall.
func (s *sender) window() int64 {
	w := s.cwnd
	if float64(s.cfg.WindowBytes) < w {
		w = float64(s.cfg.WindowBytes)
	}
	iw := int64(w)
	if m := int64(s.mss); iw < m {
		iw = m
	}
	return iw
}

// pump sends as many segments as the window allows.
func (s *sender) pump() {
	if s.done || s.err != nil {
		return
	}
	for s.nextSeq < s.total && s.nextSeq-s.ackSeq+int64(s.mss) <= s.window() {
		s.sendSegment(s.nextSeq, s.nextSeg)
		seg := int64(s.mss)
		if s.nextSeq+seg > s.total {
			seg = s.total - s.nextSeq
		}
		s.nextSeq += seg
		s.nextSeg++
	}
	s.armRTO()
}

// recordSendTS stamps the transmission of segment number seg, which
// starts at seq. Every retransmission goes through goBackN, which bumps
// tsGen, so a segment is sent at most once per generation and the slot
// can be overwritten unconditionally (stale occupants are either acked
// or invalidated).
func (s *sender) recordSendTS(seq, seg int64) {
	e := &s.sendTS[seg&int64(len(s.sendTS)-1)]
	e.seq, e.gen, e.ts = seq, s.tsGen, s.n.K.Now()
}

// lookupSendTS reports the send time of segment number seg, which
// starts at seq, if it was stamped in the current generation.
func (s *sender) lookupSendTS(seq, seg int64) (sim.Time, bool) {
	e := &s.sendTS[seg&int64(len(s.sendTS)-1)]
	if e.seq == seq && e.gen == s.tsGen {
		return e.ts, true
	}
	return 0, false
}

// sendSegment transmits segment number seg, which starts at seq.
func (s *sender) sendSegment(seq, seg int64) {
	payload := int64(s.mss)
	if seq+payload > s.total {
		payload = s.total - seq
	}
	s.recordSendTS(seq, seg)
	pkt := s.n.NewPacket()
	pkt.Src, pkt.Dst = s.src, s.dst
	pkt.Bytes = int(payload) + HeaderBytes
	pkt.Seq, pkt.Aux = seq, seg
	pkt.Handler = s.dataH
	s.n.Send(pkt)
}

// onDataArrive runs at the receiver for segment number seg, [seq, end):
// generate a cumulative ACK. The simulated network preserves per-path
// FIFO order, so the receiver only needs the highest contiguous byte;
// holes appear solely through drops, which go-back-N recovery fills by
// resending from ackSeq.
func (s *sender) onDataArrive(seq, end, seg int64) {
	if seq <= s.rcvNext && end > s.rcvNext {
		s.rcvNext, s.rcvSeg = end, seg+1
	}
	// Running at dst: the ACK allocation must come from dst's pool.
	ack := s.n.NewPacket()
	ack.Src, ack.Dst = s.dst, s.src
	ack.Bytes = AckBytes
	ack.Seq, ack.Aux = s.rcvNext, s.rcvSeg
	ack.Handler = s.ackH
	s.n.Send(ack)
}

// onAck runs at the sender for a cumulative ACK of ackNo, the start of
// segment number ackSeg.
func (s *sender) onAck(ackNo, ackSeg int64) {
	if s.done || s.err != nil {
		return
	}
	if ackNo > s.ackSeq {
		// RTT sample from the oldest outstanding segment.
		if ts, ok := s.lookupSendTS(s.ackSeq, s.ackSeg); ok {
			s.rttSample(s.n.K.Now().Sub(ts))
		}
		acked := ackNo - s.ackSeq
		s.ackSeq, s.ackSeg = ackNo, ackSeg
		s.dupAcks = 0
		s.retries = 0
		s.grow(acked)
		if s.ackSeq >= s.total {
			s.complete()
			return
		}
		s.pump()
		if fastForwardOn {
			s.steady()
		}
		return
	}
	// Duplicate ACK.
	s.dupAcks++
	if s.dupAcks == 3 {
		// Fast retransmit + multiplicative decrease.
		s.ssthresh = maxf(float64(s.nextSeq-s.ackSeq)/2, float64(2*s.mss))
		s.cwnd = s.ssthresh
		s.rtx++
		s.goBackN()
	}
}

// grow opens the congestion window for a new ACK of acked bytes, up to
// WindowBytes: above it the window is dead state, since window() caps
// it and loss recovery overwrites it unread. A window at the cap stays
// there, so a fast-forward need not repeat grow per skipped ACK.
func (s *sender) grow(acked int64) {
	if s.cwnd < s.ssthresh {
		s.cwnd += float64(acked) // slow start
	} else {
		s.cwnd += float64(s.mss) * float64(acked) / s.cwnd // CA
	}
	s.cwnd = min(s.cwnd, float64(s.cfg.WindowBytes))
}

// goBackN rewinds the send pointer to the cumulative ACK and resumes.
// Bumping tsGen invalidates every send timestamp in O(1), so the
// retransmissions stamp fresh times (Karn-style: no samples across a
// retransmit).
func (s *sender) goBackN() {
	s.nextSeq, s.nextSeg = s.ackSeq, s.ackSeg
	s.tsGen++
	s.pump()
}

func (s *sender) rttSample(d time.Duration) {
	if s.srtt == 0 {
		s.srtt = d
		s.rttvar = d / 2
		return
	}
	diff := s.srtt - d
	if diff < 0 {
		diff = -diff
	}
	s.rttvar = (3*s.rttvar + diff) / 4
	s.srtt = (7*s.srtt + d) / 8
}

func (s *sender) rto() time.Duration {
	r := s.srtt + 4*s.rttvar
	if r < s.cfg.RTOMin {
		r = s.cfg.RTOMin
	}
	return r
}

// fireRTO is the closure-free RTO trampoline; the sender rides in the
// event record. An event scheduled before the last armRTO fires early,
// and only moves on to the timer's current key.
func fireRTO(a0, _ unsafe.Pointer) {
	s := (*sender)(a0)
	if s.rtoEvSeq != s.rtoSeq {
		s.scheduleRTO()
		return
	}
	s.onRTO()
}

// armRTO restarts the retransmission timer at now + rto(), or stops it
// with nothing outstanding. Restarting reserves the key an event
// scheduled here would have and leaves the pending event where it is,
// unless that is later than the new key: an ACK costs no heap operation.
func (s *sender) armRTO() {
	if s.done || s.ackSeq >= s.nextSeq {
		s.stopRTO() // nothing outstanding
		return
	}
	k := s.n.K
	s.rtoAt, s.rtoSeq = k.Now().Add(s.rto()), k.Reserve()
	if s.rtoEv.Pending() && s.rtoEvAt <= s.rtoAt {
		return
	}
	k.Cancel(s.rtoEv)
	s.scheduleRTO()
}

// scheduleRTO makes the timer's current key its pending event.
func (s *sender) scheduleRTO() {
	s.rtoEv = s.n.K.Materialize(s.rtoAt, s.rtoSeq, fireRTO, unsafe.Pointer(s), nil)
	s.rtoEvAt, s.rtoEvSeq = s.rtoAt, s.rtoSeq
}

func (s *sender) stopRTO() {
	s.n.K.Cancel(s.rtoEv)
	s.rtoEv = sim.Event{}
}

func (s *sender) onRTO() {
	if s.done || s.err != nil {
		return
	}
	s.rtos++
	s.retries++
	if s.retries > s.cfg.MaxRetries {
		s.err = fmt.Errorf("tcpsim: %d consecutive RTOs, giving up at %d/%d bytes",
			s.retries, s.ackSeq, s.total)
		return
	}
	s.rtx++
	s.ssthresh = maxf(float64(s.nextSeq-s.ackSeq)/2, float64(2*s.mss))
	s.cwnd = float64(s.mss) // restart from slow start
	s.goBackN()
}

func (s *sender) complete() {
	s.done = true
	s.finish = s.n.K.Now()
	s.stopRTO()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
