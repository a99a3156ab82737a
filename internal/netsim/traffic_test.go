package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// A zero-rate generator used to divide by zero (meanGap = +Inf) and
// still inject one packet before the self-schedule pushed the next
// arrival past any horizon.
func TestCrossTrafficZeroBpsInjectsNothing(t *testing.T) {
	n, a, b := twoHosts(LinkConfig{Bps: 1e9, Delay: time.Millisecond})
	ct := &CrossTraffic{Net: n, Src: a.ID, Dst: b.ID, Bps: 0, Seed: 1}
	ct.Start(time.Second)
	n.K.Run()
	if sent, delivered, dropped := ct.Stats(); sent != 0 || delivered != 0 || dropped != 0 {
		t.Errorf("Bps=0 generator stats = %d/%d/%d, want 0/0/0", sent, delivered, dropped)
	}
	if n.K.Pending() != 0 {
		t.Errorf("Bps=0 generator left %d pending events", n.K.Pending())
	}
}

// The horizon is half-open: the injection loop used `>` so an arrival
// landing exactly on Now()+horizon still fired. A zero horizon is the
// degenerate case — the very first injection runs at Now() == end and
// must not send.
func TestCrossTrafficHorizonIsExclusive(t *testing.T) {
	n, a, b := twoHosts(LinkConfig{Bps: 1e9, Delay: time.Millisecond})
	ct := &CrossTraffic{Net: n, Src: a.ID, Dst: b.ID, Bps: 100e6, Seed: 2}
	ct.Start(0)
	n.K.Run()
	if sent, _, _ := ct.Stats(); sent != 0 {
		t.Errorf("zero-horizon generator sent %d packets, want 0", sent)
	}
}

// Stop() latched forever: a second Start() saw stopped==true and
// silently injected nothing.
func TestCrossTrafficRestartAfterStop(t *testing.T) {
	n, a, b := twoHosts(LinkConfig{Bps: 1e9, Delay: time.Millisecond})
	ct := &CrossTraffic{Net: n, Src: a.ID, Dst: b.ID, Bps: 100e6, Seed: 3}
	ct.Start(100 * time.Millisecond)
	n.K.RunUntil(n.K.Now().Add(10 * time.Millisecond))
	ct.Stop()
	n.K.Run()
	firstPhase, _, _ := ct.Stats()
	if firstPhase == 0 {
		t.Fatal("first phase sent nothing; test topology broken")
	}

	ct.Start(100 * time.Millisecond)
	n.K.Run()
	total, delivered, dropped := ct.Stats()
	if total <= firstPhase {
		t.Errorf("restarted generator sent nothing: %d packets before Stop, %d total", firstPhase, total)
	}
	if delivered+dropped != total {
		t.Errorf("accounting: sent %d != delivered %d + dropped %d", total, delivered, dropped)
	}
}

// Stop-then-Start from kernel context (no intervening kernel drain)
// must kill the old injection chain: leaving it pending would run two
// chains at once and double the offered load.
func TestCrossTrafficStopStartDoesNotDoubleLoad(t *testing.T) {
	const window = 100 * time.Millisecond
	singleRate := func() int64 {
		n, a, b := twoHosts(LinkConfig{Bps: 1e9, Delay: time.Millisecond})
		ct := &CrossTraffic{Net: n, Src: a.ID, Dst: b.ID, Bps: 100e6, Seed: 9}
		ct.Start(window)
		n.K.Run()
		sent, _, _ := ct.Stats()
		return sent
	}()

	n, a, b := twoHosts(LinkConfig{Bps: 1e9, Delay: time.Millisecond})
	ct := &CrossTraffic{Net: n, Src: a.ID, Dst: b.ID, Bps: 100e6, Seed: 9}
	ct.Start(2 * window)
	// Mid-stream, restart the generator without draining the kernel.
	n.K.At(n.K.Now().Add(window), func() {
		ct.Stop()
		ct.Start(window)
	})
	n.K.Run()
	sent, _, _ := ct.Stats()
	// Two sequential windows of injection: roughly 2x one window's
	// packets. A zombie chain would add a third window (~3x).
	if max := 5 * singleRate / 2; sent > max {
		t.Errorf("restarted generator sent %d packets (single window sends %d); zombie chain suspected", sent, singleRate)
	}
	if sent < singleRate {
		t.Errorf("restarted generator sent %d packets, less than one window's %d", sent, singleRate)
	}
}

// A stopped generator must leave no pending events behind, so
// simulations that stop their background load can terminate.
func TestCrossTrafficStopCancelsPendingInjection(t *testing.T) {
	n, a, b := twoHosts(LinkConfig{Bps: 1e9, Delay: time.Millisecond})
	ct := &CrossTraffic{Net: n, Src: a.ID, Dst: b.ID, Bps: 100e6, Seed: 4}
	ct.Start(time.Hour)
	n.K.RunUntil(n.K.Now().Add(10 * time.Millisecond))
	ct.Stop()
	n.K.Run() // drain in-flight packets
	if p := n.K.Pending(); p != 0 {
		t.Errorf("stopped generator left %d pending events", p)
	}
}

// A 5x-overloaded link builds an output queue far deeper than the
// ring's initial 16 slots, so the ring must grow and its head index
// must wrap while arrivals and departures interleave. Every packet
// still has to come out exactly once.
func TestCrossTrafficDeepQueueWraparound(t *testing.T) {
	// 10 Mbit/s link, 9180-byte packets (~7.3 ms serialization each);
	// 50 Mbit/s offered for 200 ms queues ~100 packets deep.
	n, a, b := twoHosts(LinkConfig{Bps: 10e6, Delay: time.Millisecond, MTU: 9180, QueueBytes: 64 << 20})
	ct := &CrossTraffic{Net: n, Src: a.ID, Dst: b.ID, Bps: 50e6, Seed: 8}
	ct.Start(200 * time.Millisecond)
	n.K.Run()
	sent, delivered, dropped := ct.Stats()
	if sent < 100 {
		t.Fatalf("only %d packets offered; load too small to exercise a deep queue", sent)
	}
	if delivered != sent || dropped != 0 {
		t.Errorf("sent %d, delivered %d, dropped %d; want lossless delivery on a 64 MiB queue",
			sent, delivered, dropped)
	}
	ifc := a.ifaces[0]
	if ifc.q.Cap() <= 16 {
		t.Errorf("ring never grew: %d slots for a ~100-deep queue", ifc.q.Cap())
	}
	if ifc.q.Len() != 0 || ifc.queued != 0 {
		t.Errorf("queue not drained: %d packets / %d bytes left", ifc.q.Len(), ifc.queued)
	}
	// More packets passed through than the ring has slots, and the ring
	// never emptied during the burst, so the head index must have
	// wrapped (the queue peaked near capacity while draining).
	if int(delivered) <= ifc.q.Cap() {
		t.Errorf("only %d packets through a %d-slot ring; wraparound not exercised", delivered, ifc.q.Cap())
	}
}

// Repeated fill/drain waves cycle the ring head through the slice
// several times; FIFO order must survive every wraparound.
func TestDeepQueueFIFOAcrossWraparound(t *testing.T) {
	n, a, b := twoHosts(LinkConfig{Bps: 100e6, Delay: time.Millisecond, MTU: 65536, QueueBytes: 64 << 20})
	var order []int
	seq := 0
	// 6 waves of 20 x 10000-byte packets (0.8 ms serialization each),
	// 25 ms apart: each wave queues ~19 deep and fully drains before
	// the next, so the head laps the grown ring again and again.
	for w := 0; w < 6; w++ {
		at := sim.Time(w) * sim.Time(25*time.Millisecond)
		n.K.At(at, func() {
			for i := 0; i < 20; i++ {
				k := seq
				seq++
				n.Send(&Packet{Src: a.ID, Dst: b.ID, Bytes: 10000,
					Handler: hooks{deliver: func(*Packet) { order = append(order, k) }}})
			}
		})
	}
	n.K.Run()
	if len(order) != 120 {
		t.Fatalf("delivered %d packets, want 120", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO broken at delivery %d: got packet %d", i, v)
		}
	}
	ifc := a.ifaces[0]
	if laps := 120 / ifc.q.Cap(); laps < 2 {
		t.Errorf("ring of %d slots lapped only %d times; waves too small for the test's purpose", ifc.q.Cap(), laps)
	}
}

// Restarting with Bps=0 must still cancel the earlier chain: Start's
// restart semantics hold even when the new phase offers no load.
func TestCrossTrafficZeroBpsRestartCancelsOldChain(t *testing.T) {
	n, a, b := twoHosts(LinkConfig{Bps: 1e9, Delay: time.Millisecond})
	ct := &CrossTraffic{Net: n, Src: a.ID, Dst: b.ID, Bps: 100e6, Seed: 6}
	ct.Start(time.Hour)
	n.K.RunUntil(n.K.Now().Add(10 * time.Millisecond))
	before, _, _ := ct.Stats()
	ct.Bps = 0
	ct.Start(time.Hour) // no-load phase: old chain must die here
	n.K.Run()
	after, _, _ := ct.Stats()
	if after != before {
		t.Errorf("old chain kept injecting through a Bps=0 restart: %d -> %d packets", before, after)
	}
}
