package tcpsim

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
