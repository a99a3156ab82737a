// Package mpi is a metacomputing-aware message-passing library modeled
// on the MPI subset Pallas implemented for the Gigabit Testbed West:
// point-to-point communication (blocking and nonblocking), the usual
// collectives, communicator splitting, and the MPI-2 features the paper
// singles out as useful for metacomputing — dynamic process creation
// (Spawn) and attachment of independently started applications
// (Open/Connect/Accept), used there for realtime visualization and
// computational steering.
//
// The library runs on the simulation kernel. A rank is a sim.Proc of
// its World's kernel: exactly one rank runs at any moment, a rank keeps
// the CPU until an MPI call blocks, and the only clock is virtual time.
// Computing between MPI calls is charged no virtual time; only
// communication is.
//
// "Metacomputing-aware" means the library distinguishes intra-machine
// from inter-machine communication: every rank is placed on a named
// host. Between ranks of one host a message is delivered at the current
// instant. Between hosts it crosses the World's netsim.Network as a
// packet train (netsim.Train) from the sender's node to the receiver's,
// the sender blocked until the last packet is delivered — so what a
// cross-host send costs is whatever that topology's links, gateways and
// host I/O caps make it cost, and nothing in this package knows a
// latency or a bandwidth. A World without a network (Run) has free
// networking everywhere.
//
// A message nobody sends or a packet the network drops cannot hang the
// program: when the kernel runs dry with ranks still blocked, World.Wait
// returns an error naming each of them and what it waits for, and the
// blocked calls return that error so the ranks unwind.
package mpi

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// envelope is the wire size of the (context, source, tag, length)
// header that precedes every payload, so an empty message still crosses
// the network as one packet.
const envelope = 32

// Tracer receives communication events stamped with the virtual time
// the operation started and ended (see package mpitrace for the
// VAMPIR-style consumer).
type Tracer interface {
	Event(rank int, kind string, peer, tag, bytes int, start, end sim.Time)
}

// message is an in-flight point-to-point message. ctx is the
// communication context: each communicator owns separate contexts for
// point-to-point and collective traffic, so wildcard receives never
// capture messages of another communicator or of a collective.
type message struct {
	ctx      int
	src, tag int // src is a world rank
	data     []byte
}

// slot is one world rank: where it runs and its receive side with MPI
// matching semantics — messages nobody has asked for yet, and receives
// posted before their message arrived, both oldest first.
type slot struct {
	host   string
	node   netsim.NodeID
	queue  []message
	posted []*Request
	wake   *sim.Chan[struct{}] // what the rank parks on in Request.Wait
}

// blocked records one parked process for the deadlock report; ch is
// what wakes it.
type blocked struct {
	rank           int    // world rank
	op             string // "send", "recv", "accept fire-viz", ...
	ctx, peer, tag int    // of a send or receive; peer is a world rank
	ch             *sim.Chan[struct{}]
}

// World owns the global rank space of one metacomputer run. It is bound
// to one kernel; all its methods run either before Wait or on a rank.
type World struct {
	k       *sim.Kernel
	net     *netsim.Network // nil: free networking
	tracer  Tracer
	ranks   []*slot
	nextCtx int
	ports   map[string]*port
	parked  []blocked
	err     error // first error a rank returned
	dead    error // set once Wait found a deadlock; parking is over
}

// NewWorld creates an empty world with an optional tracer. With a
// network, ranks are placed on its nodes by host name and run on its
// kernel; with nil, the world gets a private kernel and every message
// is delivered at once.
func NewWorld(net *netsim.Network, tracer Tracer) *World {
	w := &World{net: net, tracer: tracer, ports: make(map[string]*port)}
	if net == nil {
		w.k = sim.NewKernel()
	} else {
		w.k = net.K
	}
	return w
}

// HostOf reports the host of a world rank.
func (w *World) HostOf(worldRank int) string { return w.ranks[worldRank].host }

// nodeOf resolves a host name to its node of the world's network.
func (w *World) nodeOf(host string) (netsim.NodeID, error) {
	if w.net == nil {
		return 0, nil
	}
	for id := netsim.NodeID(0); int(id) < w.net.Nodes(); id++ {
		if w.net.Node(id).Name == host {
			return id, nil
		}
	}
	return 0, fmt.Errorf("mpi: host %q is not a node of the network", host)
}

// allocCtx reserves a fresh communication context.
func (w *World) allocCtx() int {
	w.nextCtx++
	return w.nextCtx
}

func (w *World) trace(rank int, kind string, peer, tag, bytes int, start sim.Time) {
	if w.tracer != nil {
		w.tracer.Event(rank, kind, peer, tag, bytes, start, w.k.Now())
	}
}

// park blocks p until b.ch is signalled: by the operation completing
// or, when nothing can complete it any more, by Wait, in which case the
// deadlock error comes back. After a deadlock nothing parks again, so
// the ranks unwind however many calls they still try.
func (w *World) park(p *sim.Proc, b blocked) error {
	if w.dead == nil {
		w.parked = append(w.parked, b)
		b.ch.Recv(p)
		for i := range w.parked {
			if w.parked[i] == b {
				w.parked = append(w.parked[:i], w.parked[i+1:]...)
				break
			}
		}
	}
	return w.dead
}

// Wait runs the kernel until every launched rank (including spawned
// ones) has returned, and reports the virtual time that took and the
// first error a rank returned. If the kernel runs dry while ranks are
// still blocked — a receive nobody answers, a train that lost its last
// packet — they can never be woken: Wait fails them all with an error
// naming each one, which is also its result unless a rank failed first.
func (w *World) Wait() (time.Duration, error) {
	start := w.k.Now()
	w.k.Run()
	if len(w.parked) > 0 {
		stuck := make([]string, len(w.parked))
		for i, b := range w.parked {
			stuck[i] = fmt.Sprintf("rank %d on %s in %s", b.rank, w.HostOf(b.rank), b.op)
			if b.ctx != 0 {
				stuck[i] += fmt.Sprintf("(ctx %d, peer %d, tag %d)", b.ctx, b.peer, b.tag)
			}
		}
		w.dead = fmt.Errorf("mpi: deadlock: no event left to wake %s", strings.Join(stuck, "; "))
		if w.err == nil {
			w.err = w.dead
		}
		for _, b := range w.parked {
			b.ch.TrySend(struct{}{})
		}
		w.k.Run()
	}
	return w.k.Now().Sub(start), w.err
}

// Launch starts fn as every rank of a fresh communicator whose ranks
// live on the given hosts (one rank per entry). It returns the
// communicator's world ranks.
func (w *World) Launch(hosts []string, fn func(c *Comm) error) ([]int, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("mpi: no ranks")
	}
	group := make([]int, len(hosts))
	slots := make([]*slot, len(hosts))
	for i, h := range hosts {
		node, err := w.nodeOf(h)
		if err != nil {
			return nil, err
		}
		group[i], slots[i] = len(w.ranks)+i, &slot{host: h, node: node, wake: sim.NewChan[struct{}](w.k, 0)}
	}
	w.ranks = append(w.ranks, slots...)
	p2p, coll := w.allocCtx(), w.allocCtx()
	for i, self := range group {
		c := &Comm{endpoint: endpoint{world: w, self: self}, group: group, rank: i, p2pCtx: p2p, collCtx: coll}
		c.proc = w.k.Go(hosts[i], func(*sim.Proc) {
			if err := fn(c); err != nil && w.err == nil {
				w.err = err
			}
		})
	}
	return group, nil
}

// Run is the common entry point: n ranks on one host ("local"), wait
// for completion.
func Run(n int, fn func(c *Comm) error) error {
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = "local"
	}
	_, err := RunHosts(nil, hosts, nil, fn)
	return err
}

// RunHosts places rank i on the node of net named hosts[i] (nil net:
// free networking, any names), waits for completion and reports the
// virtual time the run took.
func RunHosts(net *netsim.Network, hosts []string, tracer Tracer, fn func(c *Comm) error) (time.Duration, error) {
	w := NewWorld(net, tracer)
	if _, err := w.Launch(hosts, fn); err != nil {
		return 0, err
	}
	return w.Wait()
}
