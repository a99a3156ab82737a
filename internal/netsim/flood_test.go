package netsim

import "repro/internal/sim"

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

// Drops reports packets dropped at full queues on this node's egress
// interfaces.
func (nd *Node) Drops() int64 {
	total := nd.dropped
	for _, ifc := range nd.ifaces {
		total += ifc.drops
	}
	return total
}
