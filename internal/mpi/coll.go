package mpi

// Internal collective tags.
const (
	tagBarrier = iota
	tagGather
)

// Barrier blocks until every rank of the communicator has entered it
// (dissemination algorithm, ceil(log2 n) rounds).
func (c *Comm) Barrier() error {
	n := c.Size()
	for dist := 1; dist < n; dist *= 2 {
		sent := c.isend("coll-send", c.collCtx, (c.rank+dist)%n, tagBarrier, nil)
		if _, err := c.recvColl((c.rank-dist+n)%n, tagBarrier); err != nil {
			return err
		}
		if _, err := sent.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// Gather collects each rank's buffer at root, ordered by rank. Only
// root receives a non-nil result.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	if err := checkRank(root, c.Size()); err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, c.sendColl(root, tagGather, data)
	}
	out := make([][]byte, c.Size())
	out[root] = append([]byte(nil), data...)
	for r := range out {
		if r == root {
			continue
		}
		var err error
		if out[r], err = c.recvColl(r, tagGather); err != nil {
			return nil, err
		}
	}
	return out, nil
}
