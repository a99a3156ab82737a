package netsim

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// CrossTraffic is an open-loop background load generator: packets of a
// fixed size with exponentially distributed inter-arrival times
// (Poisson arrivals), injected from src toward dst at a target average
// rate. It models the uncoordinated campus traffic that shared the
// testbed with the experiments, and lets jitter-under-load behaviour be
// studied.
type CrossTraffic struct {
	Net      *Network
	Src, Dst NodeID
	// Bps is the target average offered load in bit/s.
	Bps float64
	// PktBytes is the packet size (default 9180).
	PktBytes int
	// Seed makes the arrival process reproducible.
	Seed int64

	sent, delivered, dropped int64
	stopped                  bool
	next                     sim.Event  // pending self-scheduled injection
	rng                      *rand.Rand // persists across restarts: one Poisson process
}

// HandleDeliver implements Handler for the generator's pooled packets.
func (ct *CrossTraffic) HandleDeliver(*Packet) { ct.delivered++ }

// HandleDrop implements Handler for the generator's pooled packets.
func (ct *CrossTraffic) HandleDrop(*Packet) { ct.dropped++ }

// Start begins injecting packets at the current virtual time and keeps
// going until Stop is called or the kernel runs dry of other events
// plus `horizon` (packets self-schedule; the generator stops itself at
// the horizon to let simulations terminate). The horizon is half-open:
// no packet is injected at exactly Now()+horizon, so a zero horizon
// injects nothing. A non-positive Bps offers no load and also injects
// nothing. Start clears any previous Stop, so a generator can be
// restarted for a new phase of the same simulation.
func (ct *CrossTraffic) Start(horizon time.Duration) {
	if ct.PktBytes == 0 {
		ct.PktBytes = 9180
	}
	k := ct.Net.K
	// Cancel any chain from an earlier Start: without this, a
	// Stop-then-Start with no intervening kernel drain would leave the
	// old chain's pending injection alive and double the offered load.
	k.Cancel(ct.next)
	ct.next = sim.Event{}
	if ct.Bps <= 0 {
		// Zero offered load: the mean inter-arrival gap diverges, so
		// the Poisson process degenerates to "never". Injecting even
		// one packet here (as the unguarded division used to) would
		// misreport an idle generator as 1 sent.
		return
	}
	ct.stopped = false
	if ct.rng == nil {
		// Lazily seeded and kept across restarts, so Stop-then-Start
		// continues one Poisson process instead of replaying the same
		// gap sequence each phase. The generator is the network's
		// stream ct.Seed+7, byte-identical to the historical
		// rand.NewSource(ct.Seed+7) behaviour.
		ct.rng = ct.Net.NewRand(ct.Seed + 7)
	}
	end := k.Now().Add(horizon)
	meanGap := float64(ct.PktBytes*8) / ct.Bps // seconds
	var inject func()
	inject = func() {
		ct.next = sim.Event{}
		if ct.stopped || k.Now() >= end {
			return
		}
		ct.sent++
		p := ct.Net.NewPacket()
		p.Src, p.Dst, p.Bytes = ct.Src, ct.Dst, ct.PktBytes
		p.Handler = ct
		ct.Net.Send(p)
		gap := -math.Log(1-ct.rng.Float64()) * meanGap
		ct.next = k.After(sim.Duration(gap), inject)
	}
	ct.next = k.At(k.Now(), inject)
}

// Stop halts injection until the next Start, cancelling the pending
// self-scheduled arrival so a stopped generator leaves no events
// behind.
func (ct *CrossTraffic) Stop() {
	ct.stopped = true
	if ct.Net != nil {
		ct.Net.K.Cancel(ct.next)
	}
	ct.next = sim.Event{}
}

// Stats reports sent/delivered/dropped packet counts.
func (ct *CrossTraffic) Stats() (sent, delivered, dropped int64) {
	return ct.sent, ct.delivered, ct.dropped
}
