package mpi

// tagGather is Gather's tag in the collective context.
const tagGather = 1

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
