package netsim

import (
	"sort"
	"time"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/sim/pdes"
)

// DefaultCut is the link-delay threshold separating "local" from "wide
// area" when Partition picks the cut: links at or above it become
// cross-partition channels. 100 µs sits far above testbed LAN hops
// (~10 µs) and far below the gigabit WAN's propagation delay (~500 µs).
const DefaultCut = 100 * time.Microsecond

// part is one partition of a partitioned network: its kernel and its
// packet pool.
type part struct {
	k    *sim.Kernel
	pool *pktPool
}

// xqDeliver injects one cross-partition arrival into the receiving
// node's kernel, through the link direction's arrival lane. It is the
// pdes.Queue deliver hook, running on the receiver's goroutine after the
// window-closing barrier.
type xqDeliver struct {
	lane *sim.Lane
	nd   *Node
}

func (d *xqDeliver) deliver(p unsafe.Pointer, at sim.Time) {
	d.lane.AtFunc(at, arriveStep, unsafe.Pointer(d.nd), p)
}

// Partition splits the network into up to k partitions, cutting every
// link whose propagation delay is at least DefaultCut, and binds each
// partition to its own kernel so Run executes them as a conservative
// parallel simulation. Every cut edge carries its own link delay as
// that pair's synchronization bound (per-pair lookahead): two
// partitions joined by a short edge sync tightly without being gated by
// a long edge elsewhere, and vice versa.
//
// Partition must run on a quiescent, just-built network: after
// ComputeRoutes, before any traffic is scheduled (it panics otherwise,
// and Connect panics after it). The node→partition assignment is a
// deterministic function of the topology, so reports stay
// byte-identical across runs and kernel counts.
//
// It returns the effective kernel count: nodes connected by local links
// cannot be split, so the topology bounds the count regardless of k — a
// topology that is one big LAN stays serial. With k <= 1 or a single
// component the network is left untouched on its original kernel.
func (n *Network) Partition(k int) int {
	if k <= 1 {
		return 1
	}
	if n.group != nil {
		panic("netsim: Partition called twice")
	}
	if n.K.Pending() > 0 || n.K.Now() != 0 {
		panic("netsim: Partition on a network with scheduled or executed events")
	}

	comp, ncomp := n.islands()
	if ncomp == 1 {
		return 1
	}
	if k > ncomp {
		k = ncomp
	}
	compPart := n.assign(comp, ncomp, k)

	// Build the partitions. Partition 0 keeps the network's original
	// kernel and default pool, so unpartitioned callers of K/NewPacket
	// observe no change.
	n.parts = make([]*part, k)
	n.parts[0] = &part{k: n.K, pool: &n.defPool}
	for p := 1; p < k; p++ {
		n.parts[p] = &part{k: sim.NewKernel(), pool: &pktPool{}}
	}
	n.wire(comp, compPart)
	return k
}

// islands groups nodes into the finest partitionable units: connected
// components over local links (delay below DefaultCut), in node-ID order
// so component numbering is deterministic.
func (n *Network) islands() ([]int, int) {
	comp := make([]int, len(n.nodes))
	for i := range comp {
		comp[i] = -1
	}
	ncomp := 0
	for _, nd := range n.nodes {
		if comp[nd.ID] != -1 {
			continue
		}
		frontier := []*Node{nd}
		comp[nd.ID] = ncomp
		for len(frontier) > 0 {
			cur := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for _, ifc := range cur.ifaces {
				if ifc.link.Delay >= DefaultCut {
					continue
				}
				peer := ifc.peer.node
				if comp[peer.ID] == -1 {
					comp[peer.ID] = ncomp
					frontier = append(frontier, peer)
				}
			}
		}
		ncomp++
	}
	return comp, ncomp
}

// assign maps islands to k partitions: longest-processing-time over
// island node counts. Island ID breaks ties, keeping the assignment
// deterministic.
func (n *Network) assign(comp []int, ncomp, k int) []int {
	cost := make([]int64, ncomp)
	for _, nd := range n.nodes {
		cost[comp[nd.ID]]++
	}
	order := make([]int, ncomp)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if cost[order[a]] != cost[order[b]] {
			return cost[order[a]] > cost[order[b]]
		}
		return order[a] < order[b]
	})
	load := make([]int64, k)
	compPart := make([]int, ncomp)
	for _, c := range order {
		best := 0
		for p := 1; p < k; p++ {
			if load[p] < load[best] {
				best = p
			}
		}
		compPart[c] = best
		load[best] += cost[c]
	}
	return compPart
}

// wire binds every node to its partition's kernel and pool and builds
// the cross-partition channels: one queue per cut-link direction whose
// endpoints landed in different partitions, each carrying its own link
// delay (the per-pair lookahead). Iterating nodes then ifaces in
// ID/attachment order keeps every member's drain order — and with it
// the injection order of equal-timestamp arrivals — deterministic.
func (n *Network) wire(comp []int, compPart []int) {
	k := len(n.parts)
	for _, nd := range n.nodes {
		pt := n.parts[compPart[comp[nd.ID]]]
		nd.k = pt.k
		nd.pool = pt.pool
	}
	for _, nd := range n.nodes {
		for _, ifc := range nd.ifaces {
			ifc.arrivals = ifc.peer.node.k.NewLane()
		}
	}
	members := make([]*pdes.Member, k)
	for p := range members {
		members[p] = &pdes.Member{K: n.parts[p].k}
	}
	lookahead := time.Duration(1) << 62
	for _, nd := range n.nodes {
		for _, ifc := range nd.ifaces {
			peer := ifc.peer.node
			sp, rp := compPart[comp[nd.ID]], compPart[comp[peer.ID]]
			if sp == rp {
				continue
			}
			d := &xqDeliver{lane: ifc.arrivals, nd: peer}
			ifc.xq = pdes.NewQueue(64, sp, ifc.link.Delay, d.deliver)
			members[rp].In = append(members[rp].In, ifc.xq)
			if ifc.link.Delay < lookahead {
				lookahead = ifc.link.Delay
			}
		}
	}
	n.lookahead = lookahead
	n.group = pdes.NewGroup(members)
}

// Lookahead reports the synchronization floor of the partitioned
// network (zero before Partition): the minimum propagation delay over
// the cut links. Pairs joined by longer edges synchronize on their own
// larger bounds (per-pair lookahead).
func (n *Network) Lookahead() time.Duration {
	if n.group == nil {
		return 0
	}
	return n.lookahead
}
