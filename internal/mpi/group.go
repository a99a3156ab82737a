package mpi

import (
	"fmt"
	"sort"
)

// Split partitions the communicator: ranks passing the same color form
// a new communicator, ordered by (key, rank). Every rank must call
// Split; a negative color yields a nil communicator (the rank opts
// out), mirroring MPI_UNDEFINED.
func (c *Comm) Split(color, key int) (*Comm, error) {
	// Gather (color, key) pairs everywhere via Allgather on the
	// collective context.
	pairs, err := c.Allgather(Float64sToBytes([]float64{float64(color), float64(key)}))
	if err != nil {
		return nil, err
	}
	type member struct{ key, rank int }
	var mine []member
	for r, buf := range pairs {
		v, err := BytesToFloat64s(buf)
		if err != nil || len(v) != 2 {
			return nil, fmt.Errorf("mpi: Split framing corrupt from rank %d", r)
		}
		if color >= 0 && int(v[0]) == color {
			mine = append(mine, member{int(v[1]), r})
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].rank < mine[j].rank
	})
	// Context agreement: the first rank of each new group allocates the
	// context pair and announces it in a second Allgather (indexed by
	// the announcing rank), which opted-out ranks join empty-handed to
	// keep the collective order consistent.
	var ann []byte
	if len(mine) > 0 && mine[0].rank == c.rank {
		p2p, coll := c.world.allocCtx(), c.world.allocCtx()
		ann = Float64sToBytes([]float64{float64(p2p), float64(coll)})
	}
	anns, err := c.Allgather(ann)
	if err != nil || len(mine) == 0 {
		return nil, err
	}
	v, err := BytesToFloat64s(anns[mine[0].rank])
	if err != nil || len(v) != 2 {
		return nil, fmt.Errorf("mpi: Split context agreement corrupt")
	}
	sub := &Comm{endpoint: c.endpoint, group: make([]int, len(mine)), p2pCtx: int(v[0]), collCtx: int(v[1])}
	for i, m := range mine {
		sub.group[i] = c.group[m.rank]
		if m.rank == c.rank {
			sub.rank = i
		}
	}
	return sub, nil
}

// Dup returns a communicator with the same group but fresh contexts,
// isolating its traffic from the original (libraries layered over user
// code use this, e.g. the tracing tool): a Split that keeps everyone
// together and in order.
func (c *Comm) Dup() (*Comm, error) { return c.Split(0, c.rank) }
