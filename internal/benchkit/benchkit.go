// Package benchkit holds the kernel and network hot-path benchmark
// bodies that more than one package runs: the owning packages wrap
// them as Benchmark* functions for `go test -bench`, and bench/ times
// the same code as its sim.* and netsim.* per-layer rows.
package benchkit

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// EventThroughput measures raw event scheduling+dispatch rate, the
// figure that bounds every simulation in this repository.
func EventThroughput(b *testing.B) {
	k := sim.NewKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(time.Microsecond, func() {})
		k.Step()
	}
}

// ProcContextSwitch measures the cooperative process handoff cost (two
// goroutine switches per Sleep).
func ProcContextSwitch(b *testing.B) {
	k := sim.NewKernel()
	k.Go("switcher", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// ChanSendRecv measures virtual-time channel rendezvous.
func ChanSendRecv(b *testing.B) {
	k := sim.NewKernel()
	c := sim.NewChan[int](k, 0)
	k.Go("recv", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			c.Recv(p)
		}
	})
	k.Go("send", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			c.Send(p, i)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// twoHosts builds a minimal two-node topology for the packet benches.
func twoHosts(cfg netsim.LinkConfig) (*netsim.Network, *netsim.Node, *netsim.Node) {
	k := sim.NewKernel()
	n := netsim.New(k)
	a := n.AddNode("a")
	z := n.AddNode("z")
	n.Connect(a, z, cfg)
	n.ComputeRoutes()
	return n, a, z
}

// PacketDelivery measures end-to-end packet cost over one link (send,
// serialize, propagate, deliver) using the pooled-packet path.
func PacketDelivery(b *testing.B) {
	n, a, dst := twoHosts(netsim.LinkConfig{Bps: 1e12, Delay: time.Microsecond, MTU: 65536, QueueBytes: 1 << 40})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := n.NewPacket()
		p.Src, p.Dst, p.Bytes = a.ID, dst.ID, 1000
		n.Send(p)
		n.K.Run()
	}
}

// MultiHopForwarding measures a 4-hop store-and-forward path.
func MultiHopForwarding(b *testing.B) {
	k := sim.NewKernel()
	n := netsim.New(k)
	nodes := make([]*netsim.Node, 5)
	for i := range nodes {
		nodes[i] = n.AddNode("n", netsim.WithForwardCost(time.Microsecond, 1e12))
	}
	for i := 0; i < 4; i++ {
		n.Connect(nodes[i], nodes[i+1], netsim.LinkConfig{Bps: 1e12, Delay: time.Microsecond, MTU: 65536})
	}
	n.ComputeRoutes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := n.NewPacket()
		p.Src, p.Dst, p.Bytes = nodes[0].ID, nodes[4].ID, 1000
		n.Send(p)
		n.K.Run()
	}
}
