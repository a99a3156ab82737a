package netsim

import (
	"time"

	"repro/internal/sim"
)

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
