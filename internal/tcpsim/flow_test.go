package tcpsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// sharedLink builds two host pairs contending for one bottleneck link:
// a1 -> b1 and a2 -> b2 both traverse s1 -- s2.
func sharedLink(bottleneckBps float64) (*netsim.Network, [2]netsim.NodeID, [2]netsim.NodeID) {
	k := sim.NewKernel()
	n := netsim.New(k)
	s1 := n.AddNode("s1", netsim.WithForwardCost(time.Microsecond, 0))
	s2 := n.AddNode("s2", netsim.WithForwardCost(time.Microsecond, 0))
	edge := netsim.LinkConfig{Bps: 1e9, Delay: 10 * time.Microsecond, MTU: 65536, QueueBytes: 16 << 20}
	var srcs, dsts [2]netsim.NodeID
	for i := 0; i < 2; i++ {
		a := n.AddNode("a")
		b := n.AddNode("b")
		n.Connect(a, s1, edge)
		n.Connect(s2, b, edge)
		srcs[i], dsts[i] = a.ID, b.ID
	}
	n.Connect(s1, s2, netsim.LinkConfig{
		Bps: bottleneckBps, Delay: 500 * time.Microsecond, MTU: 65536, QueueBytes: 16 << 20,
	})
	n.ComputeRoutes()
	return n, srcs, dsts
}

func TestConcurrentFlowsShareBottleneck(t *testing.T) {
	n, srcs, dsts := sharedLink(500e6)
	f1, err := Start(n, srcs[0], dsts[0], 32<<20, Config{WindowBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Start(n, srcs[1], dsts[1], 32<<20, Config{WindowBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(n, f1, f2); err != nil {
		t.Fatal(err)
	}
	r1, err := f1.Result()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f2.Result()
	if err != nil {
		t.Fatal(err)
	}
	// The two flows split the bottleneck roughly evenly and their sum
	// approaches (but cannot exceed) the link rate.
	sum := r1.ThroughputBps + r2.ThroughputBps
	if sum > 510e6 {
		t.Errorf("aggregate %.1f Mbit/s exceeds the 500 Mbit/s bottleneck", sum/1e6)
	}
	if sum < 380e6 {
		t.Errorf("aggregate %.1f Mbit/s, poor utilization of the bottleneck", sum/1e6)
	}
	ratio := r1.ThroughputBps / r2.ThroughputBps
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("unfair split: %.1f vs %.1f Mbit/s", r1.ThroughputBps/1e6, r2.ThroughputBps/1e6)
	}
}

func TestFlowResultBeforeCompletion(t *testing.T) {
	n, srcs, dsts := sharedLink(500e6)
	f, err := Start(n, srcs[0], dsts[0], 1<<20, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if f.s.done {
		t.Error("flow done before kernel ran")
	}
	if _, err := f.Result(); err == nil {
		t.Error("Result before completion should error")
	}
	if err := WaitAll(n, f); err != nil {
		t.Fatal(err)
	}
	if !f.s.done || f.s.err != nil {
		t.Error("flow should be cleanly done")
	}
}

func TestStartUnreachable(t *testing.T) {
	k := sim.NewKernel()
	n := netsim.New(k)
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.ComputeRoutes()
	if _, err := Start(n, a.ID, b.ID, 1000, Config{}); err == nil {
		t.Error("unreachable start accepted")
	}
}

func TestSequentialEqualsSingleTransfer(t *testing.T) {
	// A Flow driven via WaitAll matches Transfer's numbers.
	n1, s1, d1 := sharedLink(500e6)
	r1, err := Transfer(n1, s1[0], d1[0], 16<<20, Config{WindowBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	n2, s2, d2 := sharedLink(500e6)
	f, err := Start(n2, s2[0], d2[0], 16<<20, Config{WindowBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(n2, f); err != nil {
		t.Fatal(err)
	}
	r2, err := f.Result()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.ThroughputBps-r2.ThroughputBps) > 1 {
		t.Errorf("Transfer %.3f vs Flow %.3f Mbit/s", r1.ThroughputBps/1e6, r2.ThroughputBps/1e6)
	}
}
