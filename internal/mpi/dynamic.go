package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// This file implements the MPI-2 features the paper highlights for
// metacomputing: dynamic process creation (Spawn) and the attachment of
// independently started applications (Open/Connect/Accept), used in the
// testbed for realtime visualization and computational steering.

// Intercomm connects a local group with a remote group. Point-to-point
// operations address ranks of the remote group.
type Intercomm struct {
	endpoint
	local  []int // world ranks of the local group
	remote []int // world ranks of the remote group
	rank   int   // this process's rank within the local group
	ctx    int   // shared context of the bridge
}

// Rank reports the caller's rank in the local group.
func (ic *Intercomm) Rank() int { return ic.rank }

// LocalSize reports the size of the local group.
func (ic *Intercomm) LocalSize() int { return len(ic.local) }

// RemoteSize reports the size of the remote group.
func (ic *Intercomm) RemoteSize() int { return len(ic.remote) }

// Send delivers data to remote rank dst.
func (ic *Intercomm) Send(dst, tag int, data []byte) error {
	return ic.send(ic.proc, "send", ic.ctx, ic.remote, dst, tag, data)
}

// Recv blocks for a message from remote rank src (or AnySource).
func (ic *Intercomm) Recv(src, tag int) (Message, error) {
	return ic.irecv("recv", ic.ctx, ic.remote, src, tag, false).Wait()
}

// Spawn starts n new ranks running fn on the given hosts (len(hosts)
// == n) and returns an intercommunicator to them. Only the calling
// rank participates in the spawn (MPI_Comm_spawn with a root, reduced
// to the root's view); the children receive their intercomm through
// their function argument.
func (c *Comm) Spawn(hosts []string, fn func(child *Comm, parent *Intercomm) error) (*Intercomm, error) {
	ctx := c.world.allocCtx()
	children, err := c.world.Launch(hosts, func(child *Comm) error {
		return fn(child, &Intercomm{endpoint: child.endpoint, local: child.group, remote: c.group, rank: child.rank, ctx: ctx})
	})
	if err != nil {
		return nil, err
	}
	return &Intercomm{endpoint: c.endpoint, local: c.group, remote: children, rank: c.rank, ctx: ctx}, nil
}

// port is a published connection point for MPI-2 Connect/Accept.
type port struct {
	server  []int               // world ranks of the owning communicator
	clients []*connection       // connects nobody accepted yet, oldest first
	arrived *sim.Chan[struct{}] // one token per entry of clients
}

// connection is one Connect waiting for its Accept.
type connection struct {
	server   *Intercomm          // the server half, built by the client
	accepted *sim.Chan[struct{}] // wakes the client
}

// OpenPort publishes a named port owned by this communicator, like
// MPI_Open_port + MPI_Publish_name: independently started applications
// can then Connect to it by name. Opening an already-open name errors.
func (c *Comm) OpenPort(name string) error {
	if _, exists := c.world.ports[name]; exists {
		return fmt.Errorf("mpi: port %q already open", name)
	}
	c.world.ports[name] = &port{server: c.group, arrived: sim.NewChan[struct{}](c.world.k, 0)}
	return nil
}

// Accept blocks until a client connects to the named port and returns
// the server-side intercommunicator.
func (c *Comm) Accept(name string) (*Intercomm, error) {
	p, ok := c.world.ports[name]
	if !ok {
		return nil, fmt.Errorf("mpi: port %q not open", name)
	}
	if err := c.world.park(c.proc, blocked{rank: c.self, op: "accept " + name, ch: p.arrived}); err != nil {
		return nil, err
	}
	// The client built both halves; the server's half is completed here.
	conn := p.clients[0]
	p.clients = p.clients[1:]
	conn.server.endpoint, conn.server.rank = c.endpoint, c.rank
	conn.accepted.TrySend(struct{}{})
	return conn.server, nil
}

// Connect attaches this communicator to the named port, returning the
// client-side intercommunicator. It blocks until the port owner calls
// Accept. This is how the testbed attached visualization front-ends to
// running simulations.
func (c *Comm) Connect(name string) (*Intercomm, error) {
	p, ok := c.world.ports[name]
	if !ok {
		return nil, fmt.Errorf("mpi: port %q not open", name)
	}
	ctx := c.world.allocCtx()
	conn := &connection{
		server:   &Intercomm{local: p.server, remote: c.group, ctx: ctx},
		accepted: sim.NewChan[struct{}](c.world.k, 0),
	}
	p.clients = append(p.clients, conn)
	p.arrived.TrySend(struct{}{})
	if err := c.world.park(c.proc, blocked{rank: c.self, op: "connect " + name, ch: conn.accepted}); err != nil {
		return nil, err
	}
	return &Intercomm{endpoint: c.endpoint, local: c.group, remote: p.server, rank: c.rank, ctx: ctx}, nil
}
