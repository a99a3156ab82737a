package netsim

import (
	"math"
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
)

// hooks is a Handler made of two funcs; a nil func ignores its
// callback.
type hooks struct{ deliver, drop func(*Packet) }

func (h hooks) HandleDeliver(p *Packet) {
	if h.deliver != nil {
		h.deliver(p)
	}
}

func (h hooks) HandleDrop(p *Packet) {
	if h.drop != nil {
		h.drop(p)
	}
}

// twoHosts builds a -- b with the given link config and computed routes.
func twoHosts(cfg LinkConfig) (*Network, *Node, *Node) {
	k := sim.NewKernel()
	n := New(k)
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.Connect(a, b, cfg)
	n.ComputeRoutes()
	return n, a, b
}

func TestSinglePacketDelay(t *testing.T) {
	n, a, b := twoHosts(LinkConfig{Bps: 1e9, Delay: time.Millisecond, MTU: 65536})
	var arrived sim.Time
	n.K.At(0, func() {
		n.Send(&Packet{Src: a.ID, Dst: b.ID, Bytes: 125000, // 1 ms serialization at 1 Gbit/s
			Handler: hooks{deliver: func(*Packet) { arrived = n.K.Now() }}})
	})
	n.K.Run()
	want := sim.Time(2 * time.Millisecond) // 1 ms tx + 1 ms prop
	if arrived != want {
		t.Errorf("arrival at %v, want %v", arrived, want)
	}
}

func TestPathDelayMatchesSimulation(t *testing.T) {
	n, a, b := twoHosts(LinkConfig{Bps: 622e6, Delay: 500 * time.Microsecond, MTU: 9180})
	// Zero-load delay: one serialization and one propagation.
	bytes, bps := 9180.0, 622e6
	analytic := time.Duration(bytes*8/bps*1e9) + 500*time.Microsecond
	var arrived sim.Time
	n.K.At(0, func() {
		n.Send(&Packet{Src: a.ID, Dst: b.ID, Bytes: 9180,
			Handler: hooks{deliver: func(*Packet) { arrived = n.K.Now() }}})
	})
	n.K.Run()
	if got := arrived.Sub(0); got != analytic {
		t.Errorf("simulated %v != analytic %v", got, analytic)
	}
}

func TestFloodSaturatesLink(t *testing.T) {
	n, a, b := twoHosts(LinkConfig{Bps: 100e6, Delay: time.Millisecond, MTU: 65536, QueueBytes: 256 << 20})
	res := Flood(n, a.ID, b.ID, 62500, 200) // 100 Mbit total / 0.5 Mbit pkts
	if res.Delivered != 200 || res.Dropped != 0 {
		t.Fatalf("delivered %d dropped %d", res.Delivered, res.Dropped)
	}
	bps := res.ThroughputBps(0)
	if math.Abs(bps-100e6)/100e6 > 0.02 {
		t.Errorf("flood throughput = %.1f Mbit/s, want ~100", bps/1e6)
	}
}

func TestQueueDropsWhenFull(t *testing.T) {
	n, a, b := twoHosts(LinkConfig{Bps: 1e6, Delay: time.Millisecond, MTU: 65536, QueueBytes: 100000})
	res := Flood(n, a.ID, b.ID, 10000, 100) // 1 MB into a 100 KB queue on a slow link
	if res.Dropped == 0 {
		t.Error("expected drops on overfilled queue")
	}
	if res.Delivered+res.Dropped != res.Sent {
		t.Errorf("delivered %d + dropped %d != sent %d", res.Delivered, res.Dropped, res.Sent)
	}
	if a.Drops() != int64(res.Dropped) {
		t.Errorf("node drop counter %d, want %d", a.Drops(), res.Dropped)
	}
}

func TestHostRateCap(t *testing.T) {
	// A 33 MByte/s host (SP2 microchannel model) on a 622 Mbit/s
	// link: throughput must be capped by the host, not the link.
	k := sim.NewKernel()
	n := New(k)
	a := n.AddNode("t3e")
	b := n.AddNode("sp2", WithHostBps(264e6))
	n.Connect(a, b, LinkConfig{Bps: 622e6, Delay: time.Millisecond, MTU: 65536, QueueBytes: 1 << 30})
	n.ComputeRoutes()
	res := Flood(n, a.ID, b.ID, 65536, 500)
	bps := res.ThroughputBps(0)
	if bps > 270e6 || bps < 250e6 {
		t.Errorf("capped throughput = %.1f Mbit/s, want ~264", bps/1e6)
	}
}

func TestGatewayForwardingCost(t *testing.T) {
	// a -- gw -- b where the gateway adds 50 us + copy time per hop.
	k := sim.NewKernel()
	n := New(k)
	a := n.AddNode("a")
	gw := n.AddNode("gw", WithForwardCost(50*time.Microsecond, 2.6e9))
	b := n.AddNode("b")
	n.Connect(a, gw, LinkConfig{Bps: 800e6, Delay: 10 * time.Microsecond, MTU: 65536})
	n.Connect(gw, b, LinkConfig{Bps: 622e6, Delay: 10 * time.Microsecond, MTU: 65536})
	n.ComputeRoutes()

	var arrived sim.Time
	n.Send(&Packet{Src: a.ID, Dst: b.ID, Bytes: 65536, Handler: hooks{deliver: func(*Packet) { arrived = n.K.Now() }}})
	n.Run()
	direct := arrived.Sub(0)
	// Must include both serializations, both propagations and the
	// relay cost.
	bits := float64(65536 * 8)
	ser1 := time.Duration(bits / 800e6 * 1e9)
	ser2 := time.Duration(bits / 622e6 * 1e9)
	relay := 50*time.Microsecond + time.Duration(bits/2.6e9*1e9)
	want := ser1 + ser2 + 20*time.Microsecond + relay
	if diff := (direct - want).Abs(); diff > time.Microsecond {
		t.Errorf("delivered after %v, want %v", direct, want)
	}
}

func TestRoutingMultiHop(t *testing.T) {
	// chain a - s1 - s2 - b
	k := sim.NewKernel()
	n := New(k)
	a := n.AddNode("a")
	s1 := n.AddNode("s1")
	s2 := n.AddNode("s2")
	b := n.AddNode("b")
	n.Connect(a, s1, LinkConfig{Bps: 1e9, MTU: 65536})
	n.Connect(s1, s2, LinkConfig{Bps: 1e9, MTU: 9180})
	n.Connect(s2, b, LinkConfig{Bps: 1e9, MTU: 65536})
	n.ComputeRoutes()

	mtu, err := n.PathMTU(a.ID, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mtu != 9180 {
		t.Errorf("path MTU = %d, want 9180 (narrowest link)", mtu)
	}

	delivered := false
	n.K.At(0, func() {
		n.Send(&Packet{Src: a.ID, Dst: b.ID, Bytes: 1000,
			Handler: hooks{deliver: func(*Packet) { delivered = true }}})
	})
	n.K.Run()
	if !delivered {
		t.Error("multi-hop packet not delivered")
	}
}

func TestUnreachable(t *testing.T) {
	k := sim.NewKernel()
	n := New(k)
	a := n.AddNode("a")
	b := n.AddNode("b") // not connected
	n.ComputeRoutes()
	if _, err := n.PathMTU(a.ID, b.ID); err == nil {
		t.Error("PathMTU to unreachable node should error")
	}
	dropped := false
	n.K.At(0, func() {
		n.Send(&Packet{Src: a.ID, Dst: b.ID, Bytes: 100,
			Handler: hooks{drop: func(*Packet) { dropped = true }}})
	})
	n.K.Run()
	if !dropped {
		t.Error("packet to unreachable node should drop")
	}
}

func TestLoopbackDelivers(t *testing.T) {
	n, a, _ := twoHosts(LinkConfig{Bps: 1e9, MTU: 65536})
	got := false
	n.K.At(0, func() {
		n.Send(&Packet{Src: a.ID, Dst: a.ID, Bytes: 100,
			Handler: hooks{deliver: func(*Packet) { got = true }}})
	})
	n.K.Run()
	if !got {
		t.Error("loopback packet not delivered")
	}
}

func TestPing(t *testing.T) {
	n, a, b := twoHosts(LinkConfig{Bps: 622e6, Delay: 500 * time.Microsecond, MTU: 9180})
	rtt := Ping(n, a.ID, b.ID, 64, 64)
	// Dominated by 2x500us propagation.
	if rtt < time.Millisecond || rtt > 1100*time.Microsecond {
		t.Errorf("RTT = %v, want ~1 ms", rtt)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	n, a, b := twoHosts(LinkConfig{Bps: 10e6, Delay: time.Millisecond, MTU: 65536, QueueBytes: 64 << 20})
	var order []int
	n.K.At(0, func() {
		for i := 0; i < 50; i++ {
			i := i
			n.Send(&Packet{Src: a.ID, Dst: b.ID, Bytes: 1000 + i,
				Handler: hooks{deliver: func(*Packet) { order = append(order, i) }}})
		}
	})
	n.K.Run()
	if len(order) != 50 {
		t.Fatalf("delivered %d", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("reordering detected at %d: %v", i, v)
		}
	}
}

// A probe packet queued behind a flood sees more delay than one
// through an idle link.
func TestFloodAddsQueueingDelay(t *testing.T) {
	probe := func(flood int) time.Duration {
		n, a, b := twoHosts(LinkConfig{Bps: 155e6, Delay: time.Millisecond, MTU: 9180, QueueBytes: 64 << 20})
		var sum time.Duration
		samples := 50
		for i := 0; i < samples; i++ {
			sendAt := sim.Time(i) * sim.Time(time.Millisecond)
			n.K.At(sendAt, func() {
				n.Send(&Packet{Src: a.ID, Dst: b.ID, Bytes: 1000,
					Handler: hooks{deliver: func(*Packet) { sum += n.K.Now().Sub(sendAt) }}})
			})
		}
		// 100 packets of 9180 bytes hold the link for ~47 ms.
		if res := Flood(n, a.ID, b.ID, 9180, flood); res.Delivered != flood {
			t.Fatalf("flood delivered %d of %d packets", res.Delivered, flood)
		}
		return sum / time.Duration(samples)
	}
	idle := probe(0)
	loaded := probe(100)
	if loaded <= idle {
		t.Errorf("loaded delay %v not above idle %v", loaded, idle)
	}
}

// Repeated fill/drain waves cycle the ring head through the slice
// several times; FIFO order must survive every wraparound.
func TestDeepQueueFIFOAcrossWraparound(t *testing.T) {
	n, a, b := twoHosts(LinkConfig{Bps: 100e6, Delay: time.Millisecond, MTU: 65536, QueueBytes: 64 << 20})
	var order []int
	seq, depth := 0, 0
	ifc := a.ifaces[0]
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
		// 1 ms in, the wave's first packet is on the wire and the rest wait.
		n.K.At(at+sim.Time(time.Millisecond), func() { depth = max(depth, ifc.q.Len()) })
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
	// A ring grows to the power of two at or above the deepest backlog,
	// so fewer than 2*depth slots: 120 packets lap it at least twice.
	if depth <= 16 {
		t.Errorf("queue only %d deep: the ring never grew past 16 slots", depth)
	}
	if laps := 120 / (2 * depth); laps < 2 {
		t.Errorf("queue %d deep lapped its ring only %d times; waves too small for the test's purpose", depth, laps)
	}
}

// utilization is the fraction of [0, now] during which l was
// serializing, summed over both directions (so a saturated duplex link
// reads 2.0).
func utilization(l *Link, now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return l.BusyTime.Seconds() / now.Seconds()
}

func TestLinkUtilizationAccounting(t *testing.T) {
	k := sim.NewKernel()
	n := New(k)
	a := n.AddNode("a")
	b := n.AddNode("b")
	l := n.Connect(a, b, LinkConfig{Bps: 100e6, Delay: time.Millisecond, MTU: 65536, QueueBytes: 64 << 20})
	n.ComputeRoutes()
	// 100 packets of 62500 B at 100 Mbit/s: 5 ms serialization each,
	// 500 ms total busy time.
	Flood(n, a.ID, b.ID, 62500, 100)
	if got := l.WireBytes; got != 100*62500 {
		t.Errorf("wire bytes = %d", got)
	}
	// The link was busy essentially the whole run (packets back to
	// back), so utilization ~1.
	u := utilization(l, k.Now())
	if u < 0.9 || u > 1.01 {
		t.Errorf("utilization = %.3f, want ~1 for a saturated one-way flood", u)
	}
	if utilization(l, 0) != 0 {
		t.Error("utilization at t=0 should be 0")
	}
}

// checkLinks asserts the closed forms of a run that put `packets`
// packets of `bytes` on each link and ended at now: every link carried
// packets*bytes on the wire (raw framing) and was busy packets*tx of
// now, and no node dropped anything.
func checkLinks(t *testing.T, n *Network, links []*Link, packets, bytes int, now sim.Time) {
	t.Helper()
	for _, l := range links {
		if got, want := l.WireBytes, int64(packets*bytes); got != want {
			t.Errorf("%s: WireBytes = %d, want %d", l.Name, got, want)
		}
		tx := time.Duration(float64(bytes) * 8 / l.Bps * 1e9)
		want := (time.Duration(packets) * tx).Seconds() / now.Seconds()
		if got := utilization(l, now); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: Utilization = %v, want %v", l.Name, got, want)
		}
	}
	for id := 0; id < n.Nodes(); id++ {
		if d := n.Node(NodeID(id)).Drops(); d != 0 {
			t.Errorf("%s dropped %d packets", n.Node(NodeID(id)).Name, d)
		}
	}
}

// A packet that finds an empty queue behind it leaves a reserved
// link-free key, not an event: a lone packet over three hops fires
// forward, arrival x3, relay forward x2 and deliver — 7 events where one
// link-free event per hop made it 10.
func TestLonePacketFiresNoLinkFreeEvents(t *testing.T) {
	n := New(sim.NewKernel())
	a := n.AddNode("a")
	r1 := n.AddNode("r1", WithForwardCost(time.Microsecond, 0))
	r2 := n.AddNode("r2", WithForwardCost(time.Microsecond, 0))
	b := n.AddNode("b")
	cfg := LinkConfig{Bps: 1e9, Delay: 10 * time.Microsecond, MTU: 65536}
	links := []*Link{n.Connect(a, r1, cfg), n.Connect(r1, r2, cfg), n.Connect(r2, b, cfg)}
	n.ComputeRoutes()
	var arrived sim.Time
	n.Send(&Packet{Src: a.ID, Dst: b.ID, Bytes: 1000, Handler: hooks{deliver: func(*Packet) { arrived = n.K.Now() }}})
	end := n.Run()
	if got := n.K.Fired(); got != 7 {
		t.Errorf("lone packet fired %d events, want 7", got)
	}
	// Three 8 us serializations and 10 us propagations, two 1 us relays.
	if want := 3*(8*time.Microsecond+cfg.Delay) + 2*time.Microsecond; arrived.Sub(0) != want || end != arrived {
		t.Errorf("delivered at %v, run ended at %v, want both %v", arrived, end, want)
	}
	checkLinks(t, n, links, 1, 1000, end)
}

// A back-to-back burst of N packets on one link fires one link-free
// event per packet that has a successor queued behind it: N-1.
func TestBurstFiresOneLinkFreeEventPerSuccessor(t *testing.T) {
	const N, bytes = 20, 12500 // 100 µs each at 1 Gbit/s
	n, a, b := twoHosts(LinkConfig{Name: "ab", Bps: 1e9, Delay: time.Millisecond, MTU: 65536})
	for i := 0; i < N; i++ {
		n.Send(&Packet{Src: a.ID, Dst: b.ID, Bytes: bytes})
	}
	end := n.Run()
	// forward, arrival and deliver per packet, plus the link-free events.
	if got, want := n.K.Fired()-3*N, int64(N-1); got != want {
		t.Errorf("burst of %d fired %d link-free events, want %d", N, got, want)
	}
	if want := sim.Time(N*100*time.Microsecond + time.Millisecond); end != want {
		t.Errorf("run ended at %v, want %v", end, want)
	}
	checkLinks(t, n, []*Link{a.ifaces[0].link}, N, bytes, end)
}

// A packet forwarded at the very instant the link frees sees the link
// exactly as the event order has it: a forward keyed before the
// reserved link-free key finds the link busy (the key is materialized
// and fires to send it), one keyed after finds it idle and sends at
// once. Either way the packet leaves at that instant.
func TestForwardAtLinkFreeInstant(t *testing.T) {
	const bytes = 12500
	const tx = 100 * time.Microsecond // bytes at 1 Gbit/s
	cfg := LinkConfig{Bps: 1e9, Delay: time.Millisecond, MTU: 65536}
	for _, c := range []struct {
		name     string
		linkFree int64 // link-free events fired
	}{
		{"forward keyed before the link-free key", 1},
		{"forward keyed after the link-free key", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := sim.NewKernel()
			n := New(k)
			a := n.AddNode("a")
			b := n.AddNode("b")
			n.Connect(a, b, cfg)
			n.ComputeRoutes()
			var second sim.Time
			p2 := &Packet{Src: a.ID, Dst: b.ID, Bytes: bytes, Handler: hooks{deliver: func(*Packet) { second = k.Now() }}}
			wantFired := int64(6) // forward, arrival, deliver x2
			if c.linkFree == 1 {
				// A host-rate cap equal to the link rate schedules both
				// forwards now: p1's at tx, p2's at 2tx — keyed before
				// the link-free key p1's transmit reserves for 2tx.
				a.HostBps = cfg.Bps
				n.Send(&Packet{Src: a.ID, Dst: b.ID, Bytes: bytes})
				n.Send(p2)
			} else {
				// p2 is sent from an event at the link-free instant,
				// so its forward is keyed after the reservation.
				n.Send(&Packet{Src: a.ID, Dst: b.ID, Bytes: bytes})
				k.At(sim.Time(tx), func() { n.Send(p2) })
				wantFired++
			}
			n.Run()
			if got := k.Fired() - wantFired; got != c.linkFree {
				t.Errorf("fired %d link-free events, want %d", got, c.linkFree)
			}
			start := sim.Time(tx)
			if c.linkFree == 1 {
				start += sim.Time(tx) // p1 itself waited tx for the host
			}
			if want := start.Add(tx + cfg.Delay); second != want {
				t.Errorf("second packet delivered at %v, want %v", second, want)
			}
		})
	}
}

func TestBadLinkPanics(t *testing.T) {
	k := sim.NewKernel()
	n := New(k)
	a := n.AddNode("a")
	b := n.AddNode("b")
	defer func() {
		if recover() == nil {
			t.Error("zero-bandwidth link did not panic")
		}
	}()
	n.Connect(a, b, LinkConfig{})
}

// A train of no bytes would send nothing and leave its waiter parked
// for good; Train refuses it, before scheduling anything. A one-byte
// train still completes.
func TestEmptyTrainPanics(t *testing.T) {
	n, a, b := twoHosts(LinkConfig{Bps: 1e9})
	for _, nbytes := range []int{0, -64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Train of %d bytes did not panic", nbytes)
				}
			}()
			Train(n, a.ID, b.ID, nbytes)
		}()
		if p := n.Pending(); p != 0 {
			t.Errorf("Train of %d bytes left %d events pending", nbytes, p)
		}
	}
	done := false
	n.K.Go("waiter", func(p *sim.Proc) {
		Train(n, a.ID, b.ID, 1).Recv(p)
		done = true
	})
	n.Run()
	if !done {
		t.Error("a one-byte train never completed")
	}
}

// cellFramer frames a packet into whole 53-byte cells of 48 payload
// bytes after an 8-byte trailer, so wire size is not packet size.
type cellFramer struct{}

func (cellFramer) WireSize(n int) int { return (n + 8 + 47) / 48 * 53 }
func (cellFramer) Name() string       { return "cells" }

// Each interface keeps the serialization time of the last packet size
// it sent, and each node the relay costs of the last two sizes it
// relayed. Packets whose sizes alternate and change — data and ACKs
// through one gateway, then a size that evicts both — must each cost
// what the link's and the gateway's fields give afresh.
func TestMemoizedCostsFollowPacketSize(t *testing.T) {
	n := New(sim.NewKernel())
	a := n.AddNode("a")
	gw := n.AddNode("gw", WithForwardCost(7*time.Microsecond, 310e6))
	b := n.AddNode("b")
	cfg := LinkConfig{Bps: 135.6e6, Delay: 50 * time.Microsecond, MTU: 9180, Framer: cellFramer{}}
	links := []*Link{n.Connect(a, gw, cfg), n.Connect(gw, b, cfg)}
	n.ComputeRoutes()

	type send struct {
		src, dst NodeID
		bytes    int
	}
	sends := []send{
		{a.ID, b.ID, 9180}, {b.ID, a.ID, 40}, {a.ID, b.ID, 9180}, {b.ID, a.ID, 40},
		{a.ID, b.ID, 1500}, {a.ID, b.ID, 40}, {b.ID, a.ID, 9180}, {a.ID, b.ID, 1500},
		{b.ID, a.ID, 1500}, {a.ID, b.ID, 576},
	}
	ser := func(bytes int) time.Duration {
		return time.Duration(float64(cfg.Framer.WireSize(bytes)) * 8 / cfg.Bps * 1e9)
	}
	var wantWire int64
	delivered := 0
	for i, s := range sends {
		at := sim.Time(time.Duration(i) * 10 * time.Millisecond) // no queueing
		want := 2*(ser(s.bytes)+cfg.Delay) + gw.ForwardCost + time.Duration(float64(s.bytes)*8/gw.ForwardBps*1e9)
		wantWire += int64(cfg.Framer.WireSize(s.bytes))
		n.K.At(at, func() {
			n.Send(&Packet{Src: s.src, Dst: s.dst, Bytes: s.bytes, Handler: hooks{deliver: func(*Packet) {
				delivered++
				if got := n.K.Now().Sub(at); got != want {
					t.Errorf("send %d (%d bytes): took %v, want %v", i, s.bytes, got, want)
				}
			}}})
		})
	}
	n.Run()
	if delivered != len(sends) {
		t.Errorf("%d of %d packets delivered", delivered, len(sends))
	}
	for _, l := range links {
		if got := l.WireBytes; got != wantWire {
			t.Errorf("%s: WireBytes = %d, want %d", l.Name, got, wantWire)
		}
	}
}

// ownSeq is a Protocol that owns the packets of one handler and encodes
// their Seq as it is.
type ownSeq struct{ h Handler }

func (o ownSeq) AppendPacket(dst []byte, p *Packet) ([]byte, bool) {
	return AppendInts(dst, p.Seq), p.Handler == o.h
}
func (ownSeq) OwnsEvent(func(a0, a1 unsafe.Pointer), unsafe.Pointer, unsafe.Pointer) bool {
	return false
}
func (ownSeq) ShiftPacket(p *Packet, periods int64) { p.Seq += periods }

// A snapshot is a closed world: a closure event, a packet of another
// handler or a packet with Meta set makes Capture fail.
func TestCaptureClosedWorld(t *testing.T) {
	n, a, b := twoHosts(LinkConfig{Bps: 1e9, Delay: time.Millisecond})
	mine := hooks{}
	proto := ownSeq{h: &mine}
	var s Snapshot
	n.Send(&Packet{Src: a.ID, Dst: b.ID, Bytes: 1000, Handler: &mine})
	if !n.Capture(&s, proto) {
		t.Fatal("a packet of the protocol's own failed the snapshot")
	}
	ev := n.K.After(time.Microsecond, func() {})
	if n.Capture(&s, proto) {
		t.Error("a closure event passed the snapshot")
	}
	n.K.Cancel(ev)
	n.Send(&Packet{Src: a.ID, Dst: b.ID, Bytes: 1000, Handler: hooks{}})
	if n.Capture(&s, proto) {
		t.Error("a packet of another handler passed the snapshot")
	}
	n.Run()
	n.Send(&Packet{Src: a.ID, Dst: b.ID, Bytes: 1000, Handler: &mine, Meta: "x"})
	if n.Capture(&s, proto) {
		t.Error("a packet with Meta passed the snapshot")
	}
	n.Run()
	if !n.Capture(&s, proto) {
		t.Error("an idle network failed the snapshot")
	}
}
