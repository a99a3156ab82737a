package netsim

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Ping measures the round-trip time of a single request of reqBytes and
// reply of repBytes between two hosts, including all queueing-free path
// costs. It runs the kernel to completion.
func Ping(n *Network, a, b NodeID, reqBytes, repBytes int) time.Duration {
	start := n.K.Now()
	h := &pinger{n: n, repBytes: repBytes}
	n.Send(&Packet{Src: a, Dst: b, Bytes: reqBytes, Handler: h})
	n.Run()
	return h.end.Sub(start)
}

// pinger answers Ping's request (Aux 0) with the reply (Aux 1) and
// stamps the reply's arrival.
type pinger struct {
	n        *Network
	repBytes int
	end      sim.Time
}

func (h *pinger) HandleDeliver(p *Packet) {
	if p.Aux == 0 {
		h.n.Send(&Packet{Src: p.Dst, Dst: p.Src, Bytes: h.repBytes, Aux: 1, Handler: h})
		return
	}
	h.end = h.n.K.Now()
}
func (*pinger) HandleDrop(*Packet) {}

// Train injects nbytes from src to dst as a back-to-back train of
// maximum-size packets and returns a channel that receives one value at
// the instant the train's last packet is delivered. It only injects:
// the caller — a process on the network's single kernel — receives from
// the channel to wait out the transfer. Nothing is retransmitted, so a
// train whose last packet is dropped at a full queue never completes.
// An empty train (nbytes <= 0) would send no packet and so never
// complete either, parking its waiter for good: it is a caller error
// and panics. The packets come from the network's pool.
func Train(n *Network, src, dst NodeID, nbytes int) *sim.Chan[struct{}] {
	if nbytes <= 0 {
		panic(fmt.Sprintf("netsim: Train of %d bytes: a train carries at least one byte", nbytes))
	}
	const mtu = 65536 - 40
	remaining := nbytes
	done := sim.NewChan[struct{}](n.K, 0)
	for remaining > 0 {
		sz := mtu
		if remaining < sz {
			sz = remaining
		}
		remaining -= sz
		p := n.NewPacket()
		p.Src, p.Dst, p.Bytes = src, dst, sz+40
		if remaining == 0 {
			p.Aux = 1 // the last packet
		}
		p.Handler = trainEnd{done}
		n.Send(p)
	}
	return done
}

// trainEnd signals a train's channel when its last packet (Aux 1)
// arrives.
type trainEnd struct{ done *sim.Chan[struct{}] }

func (h trainEnd) HandleDeliver(p *Packet) {
	if p.Aux == 1 {
		h.done.TrySend(struct{}{})
	}
}
func (trainEnd) HandleDrop(*Packet) {}
