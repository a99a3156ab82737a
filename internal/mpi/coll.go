package mpi

import (
	"fmt"
)

// Internal collective tags.
const (
	tagBarrier = iota
	tagGather
	tagScan
)

// Op is a reduction operation over float64 element vectors.
type Op int

// Reduction operations.
const (
	OpSum Op = iota
	OpMax
	OpMin
	OpProd
)

func (op Op) apply(acc, in []float64) {
	switch op {
	case OpSum:
		for i := range acc {
			acc[i] += in[i]
		}
	case OpMax:
		for i := range acc {
			if in[i] > acc[i] {
				acc[i] = in[i]
			}
		}
	case OpMin:
		for i := range acc {
			if in[i] < acc[i] {
				acc[i] = in[i]
			}
		}
	case OpProd:
		for i := range acc {
			acc[i] *= in[i]
		}
	}
}

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

// combine receives src's vector and folds it into acc — the step every
// reduction is made of. All ranks must pass vectors of equal length.
func (c *Comm) combine(op Op, acc []float64, src, tag int) error {
	data, err := c.recvColl(src, tag)
	if err != nil {
		return err
	}
	in, err := BytesToFloat64s(data)
	if err != nil {
		return err
	}
	if len(in) != len(acc) {
		return fmt.Errorf("mpi: reduction length mismatch %d vs %d", len(in), len(acc))
	}
	op.apply(acc, in)
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

// Scan computes the inclusive prefix reduction: rank r receives
// op(vec_0, ..., vec_r). Linear chain (ranks are few in metacomputing
// configurations; latency, not bandwidth, dominates).
func (c *Comm) Scan(op Op, vec []float64) ([]float64, error) {
	acc := append([]float64(nil), vec...)
	if c.rank > 0 {
		// acc = op(prefix, own): order matters only for
		// non-commutative ops, which Op does not include.
		if err := c.combine(op, acc, c.rank-1, tagScan); err != nil {
			return nil, err
		}
	}
	if c.rank < c.Size()-1 {
		if err := c.sendColl(c.rank+1, tagScan, Float64sToBytes(acc)); err != nil {
			return nil, err
		}
	}
	return acc, nil
}
