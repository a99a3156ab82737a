// Package netsim is a packet-level, store-and-forward network simulator
// built on the internal/sim kernel. It models the Gigabit Testbed West
// topology: hosts and switches joined by duplex links, each link with a
// bandwidth, propagation delay, MTU and a link-layer framer (ATM/AAL5,
// HiPPI, or raw), finite drop-tail output queues, per-hop forwarding
// costs for IP gateways, and host I/O rate caps (the SP2 microchannel
// bottleneck).
//
// netsim carries opaque packets; TCP dynamics live in internal/tcpsim,
// which drives this package.
package netsim

import (
	"fmt"
	"time"
	"unsafe"

	"repro/internal/sim"
)

// NodeID identifies a node within one Network.
type NodeID int

// Framer converts an IP-level packet size into an on-the-wire size for
// a given link layer.
type Framer interface {
	// WireSize reports the number of bytes the link is occupied by
	// when carrying an n-byte network-layer packet.
	WireSize(n int) int
	// Name returns a short identifier for diagnostics.
	Name() string
}

// RawFramer is a transparent link layer (wire size == payload size).
type RawFramer struct{}

// WireSize implements Framer.
func (RawFramer) WireSize(n int) int { return n }

// Name implements Framer.
func (RawFramer) Name() string { return "raw" }

// Node is a host, gateway or switch in the network. Set its costs
// before traffic flows: relay costs are memoized per packet size.
type Node struct {
	ID   NodeID
	Name string

	// ForwardCost is the per-packet store-and-forward cost applied
	// when this node relays a packet (zero for pure end hosts,
	// sub-microsecond for ATM switches, tens of microseconds for the
	// workstation IP gateways).
	ForwardCost time.Duration

	// ForwardBps caps the relay copy bandwidth in bit/s
	// (0 = unlimited). Together with ForwardCost this models the
	// HiPPI-ATM gateway workstations.
	ForwardBps float64

	// HostBps caps this node's end-host injection and delivery rate
	// in bit/s (0 = unlimited). It models NIC/bus limits such as the
	// SP2 microchannel.
	HostBps float64

	net     *Network
	ifaces  []*Iface
	routes  []int // dest NodeID -> iface index, -1 unreachable
	txFree  sim.Time
	rxFree  sim.Time
	fwdFree sim.Time
	dropped int64

	// relay memoizes relayCost for the last two packet sizes (a
	// switch relays data and ACKs by turns); bytes -1 is an empty slot.
	relay [2]struct {
		bytes int
		cost  time.Duration
	}
}

// Iface is one direction-pair attachment of a node to a link.
type Iface struct {
	node *Node
	link *Link
	peer *Iface // other end

	// Output queue state (directed: this node -> peer): a ring buffer,
	// so deep queues under heavy cross-traffic dequeue in O(1) instead
	// of copying the whole slice head-forward per packet.
	q      sim.Ring[*Packet]
	queued int64 // bytes in queue

	// Packets wait in q only while a link-free event (transmitStep) is
	// scheduled to send them. With q empty, (freeAt, freeSeq) is the
	// reserved key of the link-free event of the last packet put on the
	// wire, and the link is idle once that key has passed; freeSeq 0
	// means nothing was ever sent. See transmit.
	freeAt   sim.Time
	freeSeq  uint64
	capBytes int64
	drops    int64

	// The wire size and serialization time of a txBytes-byte packet,
	// kept for the next packet of that size; txBytes -1 is none yet.
	txBytes int
	txWire  int
	txTime  time.Duration

	// arrivals carries this direction's packets to the peer: a lane,
	// since link arrivals are FIFO in time.
	arrivals *sim.Lane
}

// Link joins two nodes. It is full duplex: each direction has its own
// queue and serialization. Bps and Framer are fixed once traffic flows:
// each direction memoizes its serialization time per packet size.
type Link struct {
	Name   string
	Bps    float64       // payload-level serialization uses WireSize/Bps
	Delay  time.Duration // propagation delay
	MTU    int           // network-layer MTU
	Framer Framer

	// Wire accounting, both directions together, which the network
	// only adds to: WireBytes is the framed bytes carried, BusyTime the
	// time spent serializing.
	WireBytes int64
	BusyTime  time.Duration

	a, b *Iface
}

// LinkConfig configures Connect.
type LinkConfig struct {
	Name string
	// Bps is the link bandwidth in bit/s at the layer the Framer
	// expands to (e.g. the SDH payload rate for ATM links).
	Bps float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// MTU is the network-layer MTU (default 9180 if zero).
	MTU int
	// Framer is the link layer (default RawFramer).
	Framer Framer
	// QueueBytes is the per-direction output queue capacity
	// (default 8 MiB).
	QueueBytes int64
}

// Handler receives a packet's delivery or drop callback. One
// long-lived Handler value (typically a pointer into the protocol's flow
// state) serves every packet of a flow, with per-packet context carried
// in the packet's Seq/Aux fields, so sending costs no closure.
type Handler interface {
	// HandleDeliver fires (in kernel context) when the packet reaches
	// Dst, after any host-rate drain.
	HandleDeliver(*Packet)
	// HandleDrop fires if the packet is lost to a full queue, an
	// unreachable destination or the hop limit.
	HandleDrop(*Packet)
}

// Packet is a network-layer datagram.
//
// Packets may be heap-allocated by the caller, or taken from the
// network's pool with NewPacket. Pooled packets are recycled by the
// network as soon as their delivery or drop callback returns, so
// callbacks must not retain them.
type Packet struct {
	Src, Dst NodeID
	Bytes    int
	Meta     any
	// Seq and Aux are opaque per-packet context for the Handler (e.g.
	// a TCP sequence range), avoiding a closure or Meta boxing.
	Seq, Aux int64
	// Handler, if non-nil, receives the delivery/drop callback.
	Handler Handler

	hops   int
	pooled bool
}

// pktPool is the network's packet freelist.
type pktPool struct {
	free []*Packet
}

func (pp *pktPool) get() *Packet {
	if l := len(pp.free); l > 0 {
		p := pp.free[l-1]
		pp.free[l-1] = nil
		pp.free = pp.free[:l-1]
		return p // zeroed by put
	}
	return &Packet{pooled: true}
}

func (pp *pktPool) put(p *Packet) {
	*p = Packet{pooled: true}
	pp.free = append(pp.free, p)
}

// Network is a collection of nodes and links bound to a simulation
// kernel.
type Network struct {
	// K is the kernel every event of the network runs on; drivers
	// schedule their own events on it too.
	K *sim.Kernel
	// Links are the network's links in the order they were connected.
	Links []*Link
	nodes []*Node
	pool  pktPool
}

// NewPacket returns a zeroed packet from the network's pool. The
// network recycles it after its delivery or drop callback runs (data
// and pure-ACK packets alike), so steady-state traffic allocates
// nothing; the caller must not retain the packet past that callback.
func (n *Network) NewPacket() *Packet {
	return n.pool.get()
}

// recycle returns a pooled packet to the freelist once the network is
// done with it, clearing its fields so a parked packet does not pin the
// finished flow's Handler/closures until the slot is reused.
// Caller-allocated packets are left to the GC.
func (n *Network) recycle(p *Packet) {
	if p.pooled {
		n.pool.put(p)
	}
}

// New creates an empty network on kernel k.
func New(k *sim.Kernel) *Network {
	return &Network{K: k}
}

// AddNode creates a node. The variadic options mutate the node before
// it is returned.
func (n *Network) AddNode(name string, opts ...func(*Node)) *Node {
	nd := &Node{ID: NodeID(len(n.nodes)), Name: name, net: n}
	nd.relay[0].bytes, nd.relay[1].bytes = -1, -1
	for _, o := range opts {
		o(nd)
	}
	n.nodes = append(n.nodes, nd)
	return nd
}

// WithForwardCost sets per-packet forwarding cost and copy bandwidth
// cap, for gateways and switches.
func WithForwardCost(perPacket time.Duration, bps float64) func(*Node) {
	return func(nd *Node) { nd.ForwardCost = perPacket; nd.ForwardBps = bps }
}

// WithHostBps caps the node's end-host I/O rate in bit/s.
func WithHostBps(bps float64) func(*Node) {
	return func(nd *Node) { nd.HostBps = bps }
}

// Node returns the node with the given id.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Nodes reports the number of nodes.
func (n *Network) Nodes() int { return len(n.nodes) }

// Connect joins two nodes with a duplex link.
func (n *Network) Connect(a, b *Node, cfg LinkConfig) *Link {
	if cfg.MTU == 0 {
		cfg.MTU = 9180
	}
	if cfg.Framer == nil {
		cfg.Framer = RawFramer{}
	}
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = 8 << 20
	}
	if cfg.Bps <= 0 {
		panic(fmt.Sprintf("netsim: link %q has non-positive bandwidth", cfg.Name))
	}
	l := &Link{Name: cfg.Name, Bps: cfg.Bps, Delay: cfg.Delay, MTU: cfg.MTU, Framer: cfg.Framer}
	ia := &Iface{node: a, link: l, capBytes: cfg.QueueBytes, txBytes: -1, arrivals: n.K.NewLane()}
	ib := &Iface{node: b, link: l, capBytes: cfg.QueueBytes, txBytes: -1, arrivals: n.K.NewLane()}
	ia.peer, ib.peer = ib, ia
	l.a, l.b = ia, ib
	a.ifaces = append(a.ifaces, ia)
	b.ifaces = append(b.ifaces, ib)
	n.Links = append(n.Links, l)
	return l
}

// ComputeRoutes builds static shortest-path (hop count) routes between
// all node pairs. Call after the topology is final; Connect after
// ComputeRoutes requires another call.
func (n *Network) ComputeRoutes() {
	// BFS from every source, in one routes array, one visited set and
	// two frontier buffers for all of them.
	type hop struct {
		node     *Node
		firstIfc int
	}
	nn := len(n.nodes)
	routes := make([]int, nn*nn)
	for i := range routes {
		routes[i] = -1
	}
	visited := make([]bool, nn)
	var frontier, next []hop
	for id, src := range n.nodes {
		src.routes = routes[id*nn : (id+1)*nn : (id+1)*nn]
		clear(visited)
		visited[src.ID] = true
		for i, ifc := range src.ifaces {
			peer := ifc.peer.node
			if !visited[peer.ID] {
				visited[peer.ID] = true
				src.routes[peer.ID] = i
				frontier = append(frontier, hop{peer, i})
			}
		}
		for len(frontier) > 0 {
			next = next[:0]
			for _, h := range frontier {
				for _, ifc := range h.node.ifaces {
					peer := ifc.peer.node
					if !visited[peer.ID] {
						visited[peer.ID] = true
						src.routes[peer.ID] = h.firstIfc
						next = append(next, hop{peer, h.firstIfc})
					}
				}
			}
			frontier, next = next, frontier
		}
	}
}

// PathMTU reports the smallest MTU along the route from src to dst, or
// an error if dst is unreachable.
func (n *Network) PathMTU(src, dst NodeID) (int, error) {
	if src == dst {
		return 1 << 30, nil
	}
	mtu := 1 << 30
	cur := n.nodes[src]
	for cur.ID != dst {
		if cur.routes == nil {
			return 0, fmt.Errorf("netsim: routes not computed")
		}
		idx := cur.routes[dst]
		if idx < 0 {
			return 0, fmt.Errorf("netsim: %s unreachable from %s", n.nodes[dst].Name, n.nodes[src].Name)
		}
		ifc := cur.ifaces[idx]
		if ifc.link.MTU < mtu {
			mtu = ifc.link.MTU
		}
		cur = ifc.peer.node
	}
	return mtu, nil
}

// relayCost is the time nd's forwarding CPU spends on a bytes-byte
// packet.
func (nd *Node) relayCost(bytes int) time.Duration {
	m := &nd.relay
	switch bytes {
	case m[0].bytes:
		return m[0].cost
	case m[1].bytes:
		return m[1].cost
	}
	c := nd.ForwardCost
	if nd.ForwardBps > 0 {
		c += time.Duration(float64(bytes) * 8 / nd.ForwardBps * 1e9)
	}
	m[1] = m[0]
	m[0].bytes, m[0].cost = bytes, c
	return c
}

// Closure-free event trampolines: a0 is the node or iface (which
// reaches the Network), a1 the packet — raw pointers riding in the
// event record, cast back to their concrete types here.
func forwardStep(a0, a1 unsafe.Pointer) {
	nd := (*Node)(a0)
	nd.net.forward(nd, (*Packet)(a1))
}

func transmitStep(a0, _ unsafe.Pointer) {
	ifc := (*Iface)(a0)
	p := ifc.q.Pop()
	ifc.queued -= int64(p.Bytes)
	ifc.node.net.transmit(ifc, p)
}

func arriveStep(a0, a1 unsafe.Pointer) {
	nd := (*Node)(a0)
	nd.net.arrive(nd, (*Packet)(a1))
}

func deliverStep(a0, a1 unsafe.Pointer) {
	nd := (*Node)(a0)
	nd.net.deliver(nd, (*Packet)(a1))
}

// Send injects a packet at p.Src.
func (n *Network) Send(p *Packet) {
	src := n.nodes[p.Src]
	k := n.K
	switch {
	case p.Src == p.Dst:
		// Loopback: deliver at the current instant.
		k.Tail(deliverStep, unsafe.Pointer(src), unsafe.Pointer(p))
	case src.HostBps == 0:
		k.Tail(forwardStep, unsafe.Pointer(src), unsafe.Pointer(p))
	default:
		// Host injection serialization.
		start := k.Now()
		if src.txFree > start {
			start = src.txFree
		}
		dur := time.Duration(float64(p.Bytes) * 8 / src.HostBps * 1e9)
		src.txFree = start.Add(dur)
		k.AtFunc(src.txFree, forwardStep, unsafe.Pointer(src), unsafe.Pointer(p))
	}
}

// drop invokes the packet's drop callback and recycles it.
func (n *Network) drop(p *Packet) {
	if p.Handler != nil {
		p.Handler.HandleDrop(p)
	}
	n.recycle(p)
}

// forward routes packet p out of node nd: onto the wire at once if the
// link is idle — nothing waits or is serializing, or the reserved
// link-free key of the last packet sent has passed — else into the
// egress queue.
func (n *Network) forward(nd *Node, p *Packet) {
	idx := nd.routes[p.Dst]
	if idx < 0 {
		nd.dropped++
		n.drop(p)
		return
	}
	ifc := nd.ifaces[idx]
	if ifc.queued+int64(p.Bytes) > ifc.capBytes {
		ifc.drops++
		n.drop(p)
		return
	}
	if ifc.q.Len() == 0 && (ifc.freeSeq == 0 || n.K.Passed(ifc.freeAt, ifc.freeSeq)) {
		n.transmit(ifc, p)
		return
	}
	ifc.q.Push(p)
	ifc.queued += int64(p.Bytes)
	if ifc.q.Len() == 1 {
		// The packet on the wire is still serializing: its link-free
		// event becomes real, under the key it has had all along, and
		// will find p. (With packets already waiting, it is scheduled.)
		n.K.Materialize(ifc.freeAt, ifc.freeSeq, transmitStep, unsafe.Pointer(ifc), nil)
	}
}

// transmit serializes p, the head-of-line packet, on ifc; the arrival
// rides ifc's lane to the peer.
//
// The link is free again after serialization. With packets queued
// behind this one, that is an event which sends the next. With none,
// the event would only find the queue empty and mark the link idle, so
// it is not scheduled: its key is reserved instead, and forward
// materializes it if a packet queues before the key passes, or treats
// the link as idle if it already has. Either way the key is taken at
// this point of the schedule, before the arrival's, so every event keeps
// the (at, seq) it would have as a scheduled link-free event, and the
// simulation its order.
func (n *Network) transmit(ifc *Iface, p *Packet) {
	l := ifc.link
	k := n.K
	if p.Bytes != ifc.txBytes {
		ifc.txBytes = p.Bytes
		ifc.txWire = l.Framer.WireSize(p.Bytes)
		ifc.txTime = time.Duration(float64(ifc.txWire) * 8 / l.Bps * 1e9)
	}
	txTime := ifc.txTime
	l.WireBytes += int64(ifc.txWire)
	l.BusyTime += txTime
	if ifc.q.Len() > 0 {
		k.AfterFunc(txTime, transmitStep, unsafe.Pointer(ifc), nil)
	} else {
		ifc.freeAt, ifc.freeSeq = k.Now().Add(txTime), k.Reserve()
	}
	// Packet arrives at the peer after serialization + propagation.
	ifc.arrivals.AtFunc(k.Now().Add(txTime+l.Delay), arriveStep, unsafe.Pointer(ifc.peer.node), unsafe.Pointer(p))
}

// arrive handles a packet reaching node nd.
func (n *Network) arrive(nd *Node, p *Packet) {
	k := n.K
	p.hops++
	if p.hops > 64 {
		nd.dropped++ // routing loop guard
		n.drop(p)
		return
	}
	if nd.ID == p.Dst {
		if nd.HostBps == 0 {
			// No drain: the delivery ends the arrival, under the key
			// an event scheduled now would have had.
			k.Tail(deliverStep, unsafe.Pointer(nd), unsafe.Pointer(p))
			return
		}
		// Host delivery drain.
		start := k.Now()
		if nd.rxFree > start {
			start = nd.rxFree
		}
		dur := time.Duration(float64(p.Bytes) * 8 / nd.HostBps * 1e9)
		nd.rxFree = start.Add(dur)
		k.AtFunc(nd.rxFree, deliverStep, unsafe.Pointer(nd), unsafe.Pointer(p))
		return
	}
	// Relay: the forwarding CPU is a serial resource; packets queue
	// on it in arrival order.
	start := k.Now()
	if nd.fwdFree > start {
		start = nd.fwdFree
	}
	nd.fwdFree = start.Add(nd.relayCost(p.Bytes))
	k.AtFunc(nd.fwdFree, forwardStep, unsafe.Pointer(nd), unsafe.Pointer(p))
}

func (n *Network) deliver(nd *Node, p *Packet) {
	if p.Handler != nil {
		p.Handler.HandleDeliver(p)
	}
	n.recycle(p)
}

// Run executes the simulation until no events remain and returns the
// final clock.
func (n *Network) Run() sim.Time { return n.K.Run() }

// Pending reports the number of events waiting to fire.
func (n *Network) Pending() int { return n.K.Pending() }
