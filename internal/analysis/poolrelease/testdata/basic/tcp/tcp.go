// Package tcp exercises packet ownership, flow release discipline and
// event-handle retention against the poolrelease analyzer.
package tcp

import (
	"fix.poolrelease/netsim"
	"fix.poolrelease/sim"
)

// The supported shape: acquire, fill, hand off.
func sendClean(n *netsim.Network, src, dst netsim.NodeID) {
	p := n.NewPacket()
	p.Src, p.Dst, p.Bytes = src, dst, 1000
	n.Send(p)
}

// Touching the packet after Send reads a recycled record.
func sendThenPeek(n *netsim.Network, src, dst netsim.NodeID) int {
	p := n.NewPacket()
	p.Src, p.Dst, p.Bytes = src, dst, 1000
	n.Send(p)
	return p.Bytes // want `packet "p" used after Send`
}

// Acquiring a packet and dropping it on the floor leaks its pool slot.
func acquireAndForget(n *netsim.Network) {
	p := n.NewPacket() // want `packet "p" acquired from the pool but never sent`
	p.Bytes = 1
}

// Returning the packet transfers ownership to the caller; not a leak.
func acquireForCaller(n *netsim.Network) *netsim.Packet {
	p := n.NewPacket()
	p.Bytes = 1
	return p
}

// Flow is pool-backed: Release returns its sender state to a free
// list.
type Flow struct {
	Delivered int64
}

func (f *Flow) Release() {}

func start() *Flow { return &Flow{} }

// The supported shape: result first, release last.
func transferClean() int64 {
	f := start()
	d := f.Delivered
	f.Release()
	return d
}

// The historical tcpsim shape: an error path released the flow that a
// later line released again, putting one record on the free list
// twice.
func doubleRelease() {
	f := start()
	f.Release()
	f.Release() // want `"f" released twice in one block`
}

// Reading through a released handle races the pool's next GetSender.
func useAfterRelease() int64 {
	f := start()
	f.Release()
	return f.Delivered // want `"f" used after Release`
}

// Releasing a handle declared outside the loop re-releases the same
// record every iteration.
func releaseInLoop(flows []*Flow) {
	f := start()
	for range flows {
		f.Release() // want `"f" released inside a loop but declared outside it`
	}
}

// The per-iteration range variable names a fresh handle each time;
// releasing it is the WaitAll-then-release idiom.
func releaseEach(flows []*Flow) {
	for _, f := range flows {
		f.Release()
	}
}

// Rebinding the variable resets the discipline: two releases of two
// records.
func releaseRebindRelease() {
	f := start()
	f.Release()
	f = start()
	f.Release()
}

// Event handles parked in containers outlive their generation and go
// inert.
type scheduler struct {
	pending sim.Event // a struct-field slot is the supported pattern
	byName  map[string]sim.Event
	queue   []sim.Event
}

func (s *scheduler) park(name string, ev sim.Event) {
	s.pending = ev
	s.byName[name] = ev           // want `sim\.Event handle stored into a container`
	s.queue = append(s.queue, ev) // want `sim\.Event handle appended to a slice`
}

func shipEvent(ch chan sim.Event, ev sim.Event) {
	ch <- ev // want `sim\.Event handle sent on a channel`
}
