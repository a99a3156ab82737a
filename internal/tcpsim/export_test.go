package tcpsim

// SetFastForward turns the steady-state fast-forward on or off and
// returns a func that restores the previous setting.
func SetFastForward(on bool) (restore func()) {
	was := fastForwardOn
	fastForwardOn = on
	return func() { fastForwardOn = was }
}

// SkippedPeriods reports the ACK periods the flow's fast-forward
// skipped.
func (f *Flow) SkippedPeriods() int64 { return f.s.ff.skipped }

// Cwnd reports the flow's congestion window, which a fast-forward must
// leave bit for bit as the skipped ACKs would have.
func (f *Flow) Cwnd() float64 { return f.s.cwnd }
