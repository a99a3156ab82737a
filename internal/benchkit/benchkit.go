// Package benchkit holds the kernel/network/TCP hot-path benchmark
// bodies in importable form, so the same code runs both under `go test
// -bench` (via thin Benchmark* wrappers in the owning packages) and
// inside cmd/gtwbench, which executes them with testing.Benchmark and
// emits a machine-readable BENCH_kernel.json for tracking the
// simulator's perf trajectory across PRs.
package benchkit

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
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

// EventHeap measures scheduling+cancelling with a deep pending queue.
func EventHeap(b *testing.B) {
	k := sim.NewKernel()
	for i := 0; i < 10000; i++ {
		k.At(sim.Time(1e12+int64(i)), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := k.After(time.Millisecond, func() {})
		k.Cancel(e)
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

// TCPTransfer measures a full end-to-end TCP bulk transfer (slow
// start, windowing, ACK clocking) of 1 MiB over a gigabit link — the
// composite cost every throughput scenario pays per flow.
func TCPTransfer(b *testing.B) {
	n, a, z := twoHosts(netsim.LinkConfig{Bps: 1e9, Delay: 500 * time.Microsecond, MTU: 9180, QueueBytes: 1 << 30})
	const bytes = 1 << 20
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tcpsim.Transfer(n, a.ID, z.ID, bytes, tcpsim.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSweep builds the sweep the sharding benchmarks run: 8 grid
// points, each a 16 MiB TCP bulk transfer on a fresh Gigabit Testbed
// West instance — the shape of every throughput scenario in the paper.
// It is not registered; the benchmarks run it directly.
func benchSweep() *core.Sweep {
	vals := make([]any, 8)
	for i := range vals {
		vals[i] = i
	}
	return core.NewSweep("bench-sweep", "sharding benchmark sweep",
		[]core.Axis{{Name: "point", Values: vals}},
		func(ctx context.Context, tb *core.Testbed, opts core.Options, pt core.Point) (any, error) {
			return tb.TCPTransfer(core.HostWSJuelich, core.HostWSGMD, 16<<20,
				tcpsim.Config{WindowBytes: 4 << 20})
		},
		func(opts core.Options, results []any) (core.Report, error) {
			rep := &core.Figure1Report{}
			for i, r := range results {
				res := r.(tcpsim.Result)
				rep.Rows = append(rep.Rows, core.Figure1Row{
					Path: fmt.Sprintf("point %d", i), Mbps: res.ThroughputBps / 1e6,
				})
			}
			return rep, nil
		})
}

// runSweep drives the bench sweep at the given shard count and checks
// the merged report kept all 8 points.
func runSweep(b *testing.B, shards int) {
	sw := benchSweep()
	opts := core.NewOptions(core.WithShards(shards))
	rep, err := sw.Run(context.Background(), nil, opts)
	if err != nil {
		b.Fatal(err)
	}
	if sr, ok := rep.(core.ShardedReport); !ok || len(sr.ShardTimings()) == 0 {
		b.Fatal("sweep report lost its shard timings")
	}
}

// SweepSingleKernel is the pre-sharding baseline: the whole 8-point
// sweep evaluated sequentially on one testbed/kernel.
func SweepSingleKernel(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSweep(b, 1)
	}
}

// SweepSharded is the same sweep split across GOMAXPROCS shards, each
// owning a fresh kernel/network/testbed. On an N-core machine (N >= 4)
// this should approach N-fold speedup over SweepSingleKernel; the ratio
// of the two rows in BENCH_kernel.json is the tracked number.
func SweepSharded(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSweep(b, 0) // 0 = GOMAXPROCS
	}
}

// benchSweepUneven builds an intentionally uneven grid, the shape that
// motivated the work-stealing dispatcher: 16 points where point 0 costs
// ~10x its siblings (the figure1 pattern — its Ethernet-MTU probe
// simulates ~10x longer than the other paths). A static split strands
// the expensive point in a batch with ordinary ones, so that shard
// finishes long after the rest went idle; work stealing isolates it and
// the idle shards drain the remaining points.
func benchSweepUneven() *core.Sweep {
	vals := make([]any, 16)
	for i := range vals {
		vals[i] = i
	}
	return core.NewSweep("bench-sweep-uneven", "uneven-grid dispatch benchmark sweep",
		[]core.Axis{{Name: "point", Values: vals}},
		func(ctx context.Context, tb *core.Testbed, opts core.Options, pt core.Point) (any, error) {
			nbytes := int64(24 << 20) // the ~10x point
			if pt.Index != 0 {
				nbytes = int64(24<<20) / 10
			}
			return tb.TCPTransfer(core.HostWSJuelich, core.HostWSGMD, nbytes,
				tcpsim.Config{WindowBytes: 4 << 20})
		},
		func(opts core.Options, results []any) (core.Report, error) {
			rep := &core.Figure1Report{}
			for i, r := range results {
				res := r.(tcpsim.Result)
				rep.Rows = append(rep.Rows, core.Figure1Row{
					Path: fmt.Sprintf("point %d", i), Mbps: res.ThroughputBps / 1e6,
				})
			}
			return rep, nil
		})
}

// SweepWorkStealing drives the uneven grid on 4 shards through the
// work-stealing queue: the expensive point gets a lease of its own and
// the finished shards steal the rest. Four shards on 16 points is the
// contended shape: an even four-way split would cost ~13 units for the
// batch containing the 10x point and 4 for its siblings.
func SweepWorkStealing(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := benchSweepUneven().Run(context.Background(), nil, core.NewOptions(core.WithShards(4)))
		if err != nil {
			b.Fatal(err)
		}
		if sr, ok := rep.(core.ShardedReport); !ok || len(sr.ShardTimings()) == 0 {
			b.Fatal("sweep report lost its shard timings")
		}
	}
}

// Spec names one benchmark for the gtwbench harness.
type Spec struct {
	Name string
	Fn   func(*testing.B)
}

// Specs lists every tracked hot-path benchmark in report order.
func Specs() []Spec {
	return []Spec{
		{"BenchmarkEventThroughput", EventThroughput},
		{"BenchmarkEventHeap", EventHeap},
		{"BenchmarkProcContextSwitch", ProcContextSwitch},
		{"BenchmarkChanSendRecv", ChanSendRecv},
		{"BenchmarkPacketDelivery", PacketDelivery},
		{"BenchmarkMultiHopForwarding", MultiHopForwarding},
		{"BenchmarkTCPTransfer", TCPTransfer},
		{"BenchmarkSweepSingleKernel", SweepSingleKernel},
		{"BenchmarkSweepSharded", SweepSharded},
		{"BenchmarkSweepWorkStealing", SweepWorkStealing},
	}
}

// Result is one benchmark measurement in BENCH_kernel.json.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
}

// Run executes every Spec under testing.Benchmark and collects the
// results. A benchmark that fails (b.Fatal/b.Error) comes back from
// testing.Benchmark as a zero result; Run reports it as an error
// naming the spec instead of emitting N=0 / NaN rows.
func Run() ([]Result, error) {
	specs := Specs()
	out := make([]Result, 0, len(specs))
	for _, s := range specs {
		r := testing.Benchmark(s.Fn)
		if r.N == 0 {
			return nil, fmt.Errorf("benchkit: %s failed under testing.Benchmark", s.Name)
		}
		res := Result{
			Name:        s.Name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if r.Bytes > 0 && r.T > 0 {
			res.MBPerSec = (float64(r.Bytes) * float64(r.N) / 1e6) / r.T.Seconds()
		}
		out = append(out, res)
	}
	return out, nil
}
