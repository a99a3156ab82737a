package tcpsim

import (
	"math"
	"time"

	"repro/internal/sim"
)

// SetFastForward turns the steady-state fast-forward on or off and
// returns a func that restores the previous setting.
func SetFastForward(on bool) (restore func()) {
	was := fastForwardOn
	fastForwardOn = on
	return func() { fastForwardOn = was }
}

// Cwnd reports the flow's congestion window, which a fast-forward must
// leave bit for bit as the skipped ACKs would have.
func (f *Flow) Cwnd() float64 { return f.s.cwnd }

// Captures reports the snapshots the flow's fast-forward took, the
// certificates' second snapshots included.
func (f *Flow) Captures() int64 { return f.s.ff.captures }

// Period reports the period, in new ACKs, of the flow's last
// certificate: the one it jumped by, for a flow that jumped.
func (f *Flow) Period() int64 { return f.s.ff.period }

// RTOs reports the retransmission timeouts the flow fired.
func (f *Flow) RTOs() int64 { return f.s.rtos }

// CertifiedAt reports the segment number of the cumulative ACK at which
// the flow's last certificate ended: where it jumped, for a flow that
// jumped.
func (f *Flow) CertifiedAt() int64 { return f.s.ff.b.ackSeg }

// TimerInOrder reports whether the retransmission timer's pending
// event, if there is one, sits at or before the timer's current key,
// and whether it sits at the key itself.
func (f *Flow) TimerInOrder() (inOrder, atKey bool) {
	s := f.s
	if !s.rtoEv.Pending() {
		return true, false
	}
	atKey = s.rtoEvAt == s.rtoAt && s.rtoEvSeq == s.rtoSeq
	return s.rtoEvAt < s.rtoAt || s.rtoEvAt == s.rtoAt && s.rtoEvSeq <= s.rtoSeq, atKey
}

// ShrinkStampRing cuts the flow's send-timestamp ring to its first
// slots slots, a power of two, before the flow sends anything.
func (f *Flow) ShrinkStampRing(slots int) { f.s.sendTS = f.s.sendTS[:slots] }

// Sender is the sender's state a jump must leave as the ACKs it skips
// would have: the clock, the cumulative ACK's segment, the RTT
// estimator, the timer's key and the congestion window's bits.
type Sender struct {
	Now          sim.Time
	AckSeg       int64
	SRTT, RTTVar time.Duration
	RTOAt        sim.Time
	RTOSeq       uint64
	Cwnd         uint64
}

// State reports the flow's Sender state.
func (f *Flow) State() Sender {
	s := f.s
	return Sender{s.n.K.Now(), s.ackSeg, s.srtt, s.rttvar, s.rtoAt, s.rtoSeq, math.Float64bits(s.cwnd)}
}
