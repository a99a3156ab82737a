package tcpsim_test

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// twoHosts builds two nodes joined by one gigabit link.
func twoHosts() (*netsim.Network, netsim.NodeID, netsim.NodeID) {
	n := netsim.New(sim.NewKernel())
	a, z := n.AddNode("a"), n.AddNode("z")
	n.Connect(a, z, netsim.LinkConfig{Bps: 1e9, Delay: 500 * time.Microsecond, MTU: 9180, QueueBytes: 1 << 30})
	n.ComputeRoutes()
	return n, a.ID, z.ID
}

// BenchmarkTCPTransfer measures a full end-to-end TCP bulk transfer
// (slow start, windowing, ACK clocking) of 1 MiB over a gigabit link —
// the composite cost every throughput scenario pays per flow.
func BenchmarkTCPTransfer(b *testing.B) {
	n, a, z := twoHosts()
	const bytes = 1 << 20
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tcpsim.Transfer(n, a, z, bytes, tcpsim.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// The flow pool must leave a warmed Transfer with zero allocations per
// op: sender, Flow handle and send-timestamp ring all recycle, and the
// packet/event pools below them are already allocation-free. This is
// the regression gate for BenchmarkTCPTransfer's allocs/op.
func TestTCPTransferSteadyStateZeroAllocs(t *testing.T) {
	n, a, z := twoHosts()
	xfer := func() {
		if _, err := tcpsim.Transfer(n, a, z, 1<<20, tcpsim.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the flow, packet and event pools.
	xfer()
	xfer()
	if avg := testing.AllocsPerRun(10, xfer); avg > 0 {
		t.Errorf("steady-state TCP transfer allocates %.1f times/op, want 0 (flow pool regression)", avg)
	}
}

// BenchmarkWindowLimitedTransfer runs a window-limited transfer — 16 MiB
// through a 256 KiB window in 1460-byte segments over twoHosts' gigabit
// link — with the steady-state fast-forward off (full: every ACK period
// simulated, so ns/event keeps pricing the per-packet path) and on (ff:
// the ramp-up and the drain simulated, the periods between skipped).
// events/op is what the kernel fired; skipped_periods/op what the
// fast-forward jumped over.
func BenchmarkWindowLimitedTransfer(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"full", false}, {"ff", true}} {
		b.Run(mode.name, func(b *testing.B) {
			defer tcpsim.SetFastForward(mode.on)()
			n, a, z := twoHosts()
			cfg := tcpsim.Config{WindowBytes: 256 << 10, MSS: 1460}
			fired := n.K.Fired()
			var skipped int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := tcpsim.Start(n, a, z, 16<<20, cfg)
				if err == nil {
					err = tcpsim.WaitAll(n, f)
				}
				if err != nil {
					b.Fatal(err)
				}
				skipped += f.SkippedPeriods()
				f.Release()
			}
			events := float64(n.K.Fired() - fired)
			b.ReportMetric(events/float64(b.N), "events/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			b.ReportMetric(float64(skipped)/float64(b.N), "skipped_periods/op")
		})
	}
}
