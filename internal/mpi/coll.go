package mpi

import (
	"fmt"
)

// Internal collective tags.
const (
	tagBarrier = iota
	tagBcast
	tagReduce
	tagGather
	tagScatter
	tagAlltoall
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

// Bcast distributes root's buffer to every rank along a binomial tree
// and returns the received copy (on root: data itself).
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	n := c.Size()
	if err := checkRank(root, n); err != nil {
		return nil, err
	}
	// Rotate so the root is virtual rank 0, then run the standard
	// binomial tree: receive at the level of the lowest set bit,
	// forward at every level below it.
	vrank := (c.rank - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			var err error
			if data, err = c.recvColl((vrank-mask+root)%n, tagBcast); err != nil {
				return nil, err
			}
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < n {
			if err := c.sendColl((vrank+mask+root)%n, tagBcast, data); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
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

// Reduce combines the vec contributions of all ranks with op; the
// result is returned at root (nil elsewhere). All ranks must pass
// vectors of equal length.
func (c *Comm) Reduce(root int, op Op, vec []float64) ([]float64, error) {
	n := c.Size()
	if err := checkRank(root, n); err != nil {
		return nil, err
	}
	acc := append([]float64(nil), vec...)
	vrank := (c.rank - root + n) % n
	// Binomial fan-in: mirror image of Bcast.
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			return nil, c.sendColl((vrank&^mask+root)%n, tagReduce, Float64sToBytes(acc))
		}
		if peer := vrank | mask; peer < n {
			if err := c.combine(op, acc, (peer+root)%n, tagReduce); err != nil {
				return nil, err
			}
		}
	}
	return acc, nil
}

// Allreduce combines contributions and delivers the result everywhere.
func (c *Comm) Allreduce(op Op, vec []float64) ([]float64, error) {
	res, err := c.Reduce(0, op, vec)
	if err != nil {
		return nil, err
	}
	var buf []byte
	if c.rank == 0 {
		buf = Float64sToBytes(res)
	}
	buf, err = c.Bcast(0, buf)
	if err != nil {
		return nil, err
	}
	return BytesToFloat64s(buf)
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

// Allgather collects every rank's buffer everywhere: an Alltoall in
// which each rank sends everyone the same part.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	parts := make([][]byte, c.Size())
	for r := range parts {
		parts[r] = data
	}
	return c.Alltoall(parts)
}

// Scatter distributes parts[i] from root to rank i and returns the
// local part. Non-root ranks pass parts == nil.
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	if err := checkRank(root, c.Size()); err != nil {
		return nil, err
	}
	if c.rank != root {
		return c.recvColl(root, tagScatter)
	}
	if len(parts) != c.Size() {
		return nil, fmt.Errorf("mpi: Scatter needs %d parts, got %d", c.Size(), len(parts))
	}
	for r, part := range parts {
		if r == root {
			continue
		}
		if err := c.sendColl(r, tagScatter, part); err != nil {
			return nil, err
		}
	}
	return append([]byte(nil), parts[root]...), nil
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

// ReduceScatter reduces rank-indexed blocks across all ranks and
// scatters the result: each rank passes one block per destination rank
// and receives the element-wise op-combination of the blocks addressed
// to it.
func (c *Comm) ReduceScatter(op Op, blocks [][]float64) ([]float64, error) {
	n := c.Size()
	if len(blocks) != n {
		return nil, fmt.Errorf("mpi: ReduceScatter needs %d blocks, got %d", n, len(blocks))
	}
	parts := make([][]byte, n)
	for r, blk := range blocks {
		parts[r] = Float64sToBytes(blk)
	}
	in, err := c.Alltoall(parts)
	if err != nil {
		return nil, err
	}
	var acc []float64
	for r, buf := range in {
		v, err := BytesToFloat64s(buf)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = v
			continue
		}
		if len(v) != len(acc) {
			return nil, fmt.Errorf("mpi: ReduceScatter block from rank %d has %d elements, want %d",
				r, len(v), len(acc))
		}
		op.apply(acc, v)
	}
	return acc, nil
}

// Alltoall sends parts[i] to rank i and returns the buffers received
// from every rank (indexed by source).
func (c *Comm) Alltoall(parts [][]byte) ([][]byte, error) {
	n := c.Size()
	if len(parts) != n {
		return nil, fmt.Errorf("mpi: Alltoall needs %d parts, got %d", n, len(parts))
	}
	var sent []*Request
	for r, part := range parts {
		if r != c.rank {
			sent = append(sent, c.isend("coll-send", c.collCtx, r, tagAlltoall, part))
		}
	}
	out := make([][]byte, n)
	out[c.rank] = append([]byte(nil), parts[c.rank]...)
	for r := range out {
		if r == c.rank {
			continue
		}
		var err error
		if out[r], err = c.recvColl(r, tagAlltoall); err != nil {
			return nil, err
		}
	}
	return out, WaitAll(sent...)
}
