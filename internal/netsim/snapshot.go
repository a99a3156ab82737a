package netsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"time"
	"unsafe"

	"repro/internal/sim"
)

// A transport that settles into an exactly periodic steady state — a
// window-limited TCP flow alone on its path, say — can skip whole
// periods instead of simulating them: capture a Snapshot at the same
// point of two consecutive periods, and if the two are the Same, the
// evolution from the second is the evolution from the first moved by
// one period, so Advance can move the network k periods on at once.
//
// A Snapshot holds the network's state relative to the clock: the
// kernel's pending events with their keys taken from (Now, Seq), each
// node's free times clamped at Now (a resource free in the past is free
// now), each interface's queue and reserved link-free key (or "idle"),
// and the drop counters. Packets are encoded by the fields the network
// reads — endpoints, size, hop count — and by the Protocol, which owns
// their Seq, Aux and Handler. Times and seqs enter only as differences,
// and the network's behaviour depends on nothing else: durations depend
// only on packet sizes and times are integer nanoseconds. What grows by
// the same amount every period — each link's wire bytes and busy time —
// is kept absolute, and Advance adds the per-period growth k times.
//
// The encoding is a closed world: an event that is neither the
// network's nor owned by the Protocol (a closure, a process, another
// transport's timer), a packet the Protocol does not own, or one with
// Meta set makes Capture fail, since nothing would shift what such an
// event or packet refers to.

// Protocol is a transport's side of a Snapshot.
type Protocol interface {
	// AppendPacket appends p's Handler, Seq and Aux to dst (with
	// AppendInts), the numbers relative to the transport's own position,
	// or reports false for a packet the transport does not own.
	AppendPacket(dst []byte, p *Packet) ([]byte, bool)
	// OwnsEvent reports whether a pending event that is not the
	// network's belongs to the transport; it is left out of the
	// snapshot for the transport to encode (and shift) itself.
	OwnsEvent(f func(a0, a1 unsafe.Pointer), a0, a1 unsafe.Pointer) bool
	// ShiftPacket moves p's Seq and Aux on by the given number of
	// periods.
	ShiftPacket(p *Packet, periods int64)
}

// Snapshot is the network's state at one instant, relative to the
// kernel's clock there. The zero value is empty; Capture fills it and
// reuses its buffers.
type Snapshot struct {
	now  sim.Time
	seq  uint64
	rel  []byte // AppendInts encoding
	wire []int64
	busy []time.Duration
}

// Now reports the clock the snapshot was taken at.
func (s *Snapshot) Now() sim.Time { return s.now }

// Same reports whether two snapshots hold the same relative state.
func (s *Snapshot) Same(o *Snapshot) bool { return bytes.Equal(s.rel, o.rel) }

// AppendInts appends vs to dst as varints: the snapshot's encoding,
// which keeps the mostly small relative numbers of a window of packets
// in a few bytes each.
func AppendInts(dst []byte, vs ...int64) []byte {
	for _, v := range vs {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// The network's closure-free steps, told apart by code address.
var (
	forwardPC  = funcPC(forwardStep)
	transmitPC = funcPC(transmitStep)
	arrivePC   = funcPC(arriveStep)
	deliverPC  = funcPC(deliverStep)
)

// funcPC reports the code address of a closure-free callback.
func funcPC(f func(a0, a1 unsafe.Pointer)) uintptr { return reflect.ValueOf(f).Pointer() }

// The kinds of the network's steps in a snapshot. A transmit step's
// argument is an iface; the others carry a node and a packet.
const (
	transmitKind = 1 + iota
	forwardKind
	arriveKind
	deliverKind
)

// stepKind reports which of the network's steps f is, or 0 for none.
func stepKind(f func(a0, a1 unsafe.Pointer)) int64 {
	switch funcPC(f) {
	case transmitPC:
		return transmitKind
	case forwardPC:
		return forwardKind
	case arrivePC:
		return arriveKind
	case deliverPC:
		return deliverKind
	}
	return 0
}

// Capture fills s with the network's state now and reports whether the
// state is a closed world for p (see Protocol). Call it in event
// context, where the kernel's Passed is exact.
func (n *Network) Capture(s *Snapshot, p Protocol) bool {
	k := n.K
	now, seq := k.Now(), k.Seq()
	s.now, s.seq = now, seq
	rel := AppendInts(s.rel[:0], int64(seq-k.Cur()))
	ok := true
	k.Visit(func(at sim.Time, eseq uint64, f func(a0, a1 unsafe.Pointer), a0, a1 unsafe.Pointer) bool {
		rel, ok = n.appendEvent(rel, at-now, eseq-seq, f, a0, a1, p)
		return ok
	})
	if !ok {
		s.rel = rel
		return false
	}
	for _, nd := range n.nodes {
		rel = AppendInts(rel, since(nd.txFree, now), since(nd.rxFree, now), since(nd.fwdFree, now), nd.dropped)
		for _, ifc := range nd.ifaces {
			rel = AppendInts(rel, int64(ifc.q.Len()), ifc.queued, ifc.drops)
			for i := 0; i < ifc.q.Len(); i++ {
				if rel, ok = n.appendPacket(rel, ifc.q.At(i), p); !ok {
					s.rel = rel
					return false
				}
			}
			switch {
			case ifc.q.Len() > 0:
				// The key is stale: transmit takes a new one when the
				// queue drains.
			case ifc.freeSeq == 0 || k.Passed(ifc.freeAt, ifc.freeSeq):
				rel = AppendInts(rel, 0)
			default:
				rel = AppendInts(rel, 1, int64(ifc.freeAt-now), int64(ifc.freeSeq-seq))
			}
		}
	}
	s.wire, s.busy = s.wire[:0], s.busy[:0]
	for _, l := range n.Links {
		s.wire = append(s.wire, l.WireBytes)
		s.busy = append(s.busy, l.BusyTime)
	}
	s.rel = rel
	return true
}

// appendEvent encodes a pending event, its key relative to the clock,
// or reports false for one outside p's closed world.
func (n *Network) appendEvent(dst []byte, at sim.Time, seq uint64, f func(a0, a1 unsafe.Pointer), a0, a1 unsafe.Pointer, p Protocol) ([]byte, bool) {
	if f == nil {
		return dst, false // a closure
	}
	kind := stepKind(f)
	switch kind {
	case 0:
		return dst, p.OwnsEvent(f, a0, a1)
	case transmitKind:
		// The iface's address names it: it is the same object in every
		// snapshot of this network.
		ifc := (*Iface)(a0)
		return AppendInts(dst, kind, int64(at), int64(seq), int64(uintptr(a0))), ifc.node.net == n
	}
	nd := (*Node)(a0)
	if nd.net != n {
		return dst, false
	}
	dst = AppendInts(dst, kind, int64(at), int64(seq), int64(nd.ID))
	return n.appendPacket(dst, (*Packet)(a1), p)
}

// since is t relative to now, clamped at 0: a node's resource that was
// free before now is free now.
func since(t, now sim.Time) int64 { return int64(max(t-now, 0)) }

// appendPacket encodes p: the fields the network reads, then the
// protocol's.
func (n *Network) appendPacket(dst []byte, p *Packet, proto Protocol) ([]byte, bool) {
	if p.Meta != nil {
		return dst, false
	}
	dst = AppendInts(dst, int64(p.Src), int64(p.Dst), int64(p.Bytes), int64(p.hops))
	return proto.AppendPacket(dst, p)
}

// Advance moves the network periods periods on from to, where from and
// to are snapshots captured one period apart, the later one just now,
// and Same: the clock, the seq counter, every pending key, every node's
// free times and every reserved link-free key move by periods times the
// (time, seq) distance between them, each link's wire bytes and busy
// time grow by periods times what they grew between them, and p shifts
// every packet in flight or queued. The drop counters stay: the
// snapshots being the Same, no period dropped anything. It returns the
// time and seq distance the clock moved, for the protocol to move its
// own keys by.
func (n *Network) Advance(from, to *Snapshot, periods int64, p Protocol) (sim.Time, uint64) {
	k := n.K
	if k.Now() != to.now || k.Seq() != to.seq {
		panic(fmt.Sprintf("netsim: Advance from a snapshot at %v/%d, now %v/%d", to.now, to.seq, k.Now(), k.Seq()))
	}
	dt := sim.Time(periods) * (to.now - from.now)
	dseq := uint64(periods) * (to.seq - from.seq)
	k.Shift(dt, dseq)
	k.Visit(func(_ sim.Time, _ uint64, f func(a0, a1 unsafe.Pointer), _, a1 unsafe.Pointer) bool {
		if kind := stepKind(f); kind > transmitKind {
			p.ShiftPacket((*Packet)(a1), periods)
		}
		return true
	})
	for _, nd := range n.nodes {
		nd.txFree += dt
		nd.rxFree += dt
		nd.fwdFree += dt
		for _, ifc := range nd.ifaces {
			for i := 0; i < ifc.q.Len(); i++ {
				p.ShiftPacket(ifc.q.At(i), periods)
			}
			if ifc.freeSeq != 0 {
				ifc.freeAt += dt
				ifc.freeSeq += dseq
			}
		}
	}
	for i, l := range n.Links {
		l.WireBytes += periods * (to.wire[i] - from.wire[i])
		l.BusyTime += time.Duration(periods) * (to.busy[i] - from.busy[i])
	}
	return dt, dseq
}
