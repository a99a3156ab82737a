package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/tcpsim"
)

// The sweep-engine benchmarks: the same 8-point TCP sweep run on one
// kernel vs. sharded across GOMAXPROCS kernels (the ratio of the two is
// the number to read), plus an uneven grid through the work-stealing
// queue. bench/'s core.shard_speedup_x row reads the same kind of
// ratio on its sim-sweep workload.

// transferSweep builds an unregistered sweep whose points are
// WS-Jülich -> WS-GMD TCP bulk transfers of bytes(i) bytes, each on its
// shard's testbed — the shape of every throughput scenario in the paper.
func transferSweep(name string, points int, bytes func(i int) int64) *Sweep {
	vals := make([]any, points)
	for i := range vals {
		vals[i] = i
	}
	return NewSweep(name, "sweep-engine benchmark",
		[]Axis{{Name: "point", Values: vals}},
		func(ctx context.Context, tb *Testbed, opts Options, pt Point) (any, error) {
			return tb.TCPTransfer(HostWSJuelich, HostWSGMD, bytes(pt.Index),
				tcpsim.Config{WindowBytes: 4 << 20})
		},
		func(opts Options, results []any) (Report, error) {
			rep := &Figure1Report{}
			for i, r := range results {
				res := r.(tcpsim.Result)
				rep.Rows = append(rep.Rows, Figure1Row{
					Path: fmt.Sprintf("point %d", i), Mbps: res.ThroughputBps / 1e6,
				})
			}
			return rep, nil
		})
}

// runSweep drives sw at the given shard count (0 = GOMAXPROCS) b.N
// times and checks each merged report kept its shard timings.
func runSweep(b *testing.B, sw *Sweep, shards int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sw.Run(context.Background(), nil, NewOptions(WithShards(shards)))
		if err != nil {
			b.Fatal(err)
		}
		if sr, ok := rep.(ShardedReport); !ok || len(sr.ShardTimings()) == 0 {
			b.Fatal("sweep report lost its shard timings")
		}
	}
}

// evenSweep is 8 points of 16 MiB each.
func evenSweep() *Sweep {
	return transferSweep("bench-sweep", 8, func(int) int64 { return 16 << 20 })
}

// BenchmarkSweepSingleKernel is the pre-sharding baseline: the whole
// 8-point sweep evaluated sequentially on one testbed/kernel.
func BenchmarkSweepSingleKernel(b *testing.B) { runSweep(b, evenSweep(), 1) }

// BenchmarkSweepSharded is the same sweep split across GOMAXPROCS
// shards, each owning a fresh kernel/network/testbed.
func BenchmarkSweepSharded(b *testing.B) { runSweep(b, evenSweep(), 0) }

// BenchmarkSweepWorkStealing runs an intentionally uneven grid through
// the work-stealing queue: 16 points where point 0 costs ~10x its
// siblings (the figure1 pattern). Four shards on 16 points is the
// contended shape: an even four-way split would cost ~13 units for the
// batch holding the 10x point and 4 for the others; work stealing
// gives that point a lease of its own and the idle shards drain the
// rest.
func BenchmarkSweepWorkStealing(b *testing.B) {
	sw := transferSweep("bench-sweep-uneven", 16, func(i int) int64 {
		if i == 0 {
			return 24 << 20
		}
		return (24 << 20) / 10
	})
	runSweep(b, sw, 4)
}

// BenchmarkFigure1Probe runs each figure-1 probe (96 MiB with a 4 MiB
// window) on a fresh OC-48 testbed per op, one sub-benchmark a probe.
// Ethernet is the 1500-MTU probe (WS-Jülich -> WS-GMD in 1460-byte
// segments) that BenchmarkFigure1EthernetProbe ran, with the same
// inputs: the most expensive thing the repository simulates, and the
// one every per-packet cost of sim, netsim and tcpsim is paid on.
// events/op is what the kernel fired, ns/event the price of one, and
// skipped_periods/op the ACKs the fast-forward jumped over; compare
// with -count ≥ 6.
func BenchmarkFigure1Probe(b *testing.B) {
	names := []string{"HiPPI", "T3E-SP2", "ATM-64K", "CLIP-9180", "Ethernet"}
	if len(names) != len(f1probes) || f1probes[4].mtu != 1500 {
		b.Fatalf("f1probes changed: %d probes, the fifth of MTU %d", len(f1probes), f1probes[4].mtu)
	}
	for i, p := range f1probes {
		b.Run(names[i], func(b *testing.B) {
			cfg := tcpsim.Config{WindowBytes: 4 << 20}
			if p.mtu != 0 {
				cfg.MSS = p.mtu - tcpsim.HeaderBytes
			}
			var events, skipped int64
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				tb := New(Config{})
				src, err := tb.Host(p.src)
				if err != nil {
					b.Fatal(err)
				}
				dst, err := tb.Host(p.dst)
				if err != nil {
					b.Fatal(err)
				}
				f, err := tcpsim.Start(tb.Net, src, dst, 96<<20, cfg)
				if err == nil {
					err = tcpsim.WaitAll(tb.Net, f)
				}
				if err != nil {
					b.Fatal(err)
				}
				events += tb.K.Fired()
				skipped += f.SkippedPeriods()
				f.Release()
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(skipped)/float64(b.N), "skipped_periods/op")
		})
	}
}
