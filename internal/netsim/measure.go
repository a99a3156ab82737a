package netsim

import (
	"time"

	"repro/internal/sim"
)

// FloodResult summarizes a fixed-size packet flood between two hosts.
type FloodResult struct {
	Sent      int
	Delivered int
	Dropped   int
	First     sim.Time
	Last      sim.Time
	Bytes     int64
}

// ThroughputBps reports the delivered goodput in bit/s, measured from
// injection start (time of the Flood call) to the last delivery.
func (r FloodResult) ThroughputBps(start sim.Time) float64 {
	if r.Delivered == 0 || r.Last <= start {
		return 0
	}
	return float64(r.Bytes) * 8 / r.Last.Sub(start).Seconds()
}

// Flood injects count packets of pktBytes back to back from src to dst
// and runs the kernel until all are delivered or dropped. It is a
// UDP-style open-loop measurement: it exposes raw path capacity without
// any window dynamics.
func Flood(n *Network, src, dst NodeID, pktBytes, count int) FloodResult {
	var res FloodResult
	res.First = -1
	for i := 0; i < count; i++ {
		p := &Packet{
			Src: src, Dst: dst, Bytes: pktBytes,
			OnDeliver: func(p *Packet) {
				if res.First < 0 {
					res.First = n.K.Now()
				}
				res.Last = n.K.Now()
				res.Delivered++
				res.Bytes += int64(p.Bytes)
			},
			OnDrop: func(*Packet) { res.Dropped++ },
		}
		n.Send(p)
		res.Sent++
	}
	n.Run()
	return res
}

// Ping measures the round-trip time of a single request of reqBytes and
// reply of repBytes between two hosts, including all queueing-free path
// costs. It runs the kernel to completion.
func Ping(n *Network, a, b NodeID, reqBytes, repBytes int) time.Duration {
	start := n.K.Now()
	var end sim.Time
	req := &Packet{Src: a, Dst: b, Bytes: reqBytes}
	req.OnDeliver = func(*Packet) {
		rep := &Packet{Src: b, Dst: a, Bytes: repBytes}
		rep.OnDeliver = func(*Packet) { end = n.K.Now() }
		n.Send(rep)
	}
	n.Send(req)
	n.Run()
	return end.Sub(start)
}

// Train injects nbytes from src to dst as a back-to-back train of
// maximum-size packets and returns a channel that receives one value at
// the instant the train's last packet is delivered. It only injects:
// the caller — a process on the network's single kernel — receives from
// the channel to wait out the transfer. Nothing is retransmitted, so a
// train whose last packet is dropped at a full queue never completes,
// and neither does an empty one (nbytes <= 0 sends no packet).
func Train(n *Network, src, dst NodeID, nbytes int) *sim.Chan[struct{}] {
	const mtu = 65536 - 40
	remaining := nbytes
	done := sim.NewChan[struct{}](n.K, 0)
	for remaining > 0 {
		sz := mtu
		if remaining < sz {
			sz = remaining
		}
		remaining -= sz
		last := remaining == 0
		n.Send(&Packet{
			Src: src, Dst: dst, Bytes: sz + 40,
			OnDeliver: func(*Packet) {
				if last {
					done.TrySend(struct{}{})
				}
			},
		})
	}
	return done
}
