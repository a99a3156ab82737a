package sim_test

import (
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/sim"
)

// Four of these bodies live in internal/benchkit because bench/ times
// the same code as its sim.event_ns, sim.proc_switch_ns and sim.chan_ns
// rows; these wrappers keep them discoverable under `go test -bench`.

// BenchmarkEventThroughput measures raw event scheduling+dispatch rate,
// the figure that bounds every simulation in this repository.
func BenchmarkEventThroughput(b *testing.B) { benchkit.EventThroughput(b) }

// BenchmarkEventHeap measures scheduling+cancelling with a deep pending
// queue.
func BenchmarkEventHeap(b *testing.B) {
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

// BenchmarkProcContextSwitch measures the cooperative process handoff
// cost (two goroutine switches per Sleep).
func BenchmarkProcContextSwitch(b *testing.B) { benchkit.ProcContextSwitch(b) }

// BenchmarkChanSendRecv measures virtual-time channel rendezvous.
func BenchmarkChanSendRecv(b *testing.B) { benchkit.ChanSendRecv(b) }
