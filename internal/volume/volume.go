// Package volume provides the 3-D image type shared by the MRI scanner
// simulator, the FIRE analysis modules and the visualization pipeline:
// float32 voxel grids with trilinear resampling, rigid shifts and slab
// domain decomposition (the decomposition FIRE uses on the T3E).
//
// Two trilinear samplers give the same bits: Trilinear is the point
// sampler; Sampler takes a tensor grid (one coordinate list per axis),
// interpolates one axis at a time keeping each intermediate row and
// slice, and yields the grid one z-plane at a time — how the workbench
// merge streams the upsampled map. Sampler.Shift collects its planes
// into a volume.
package volume

import (
	"fmt"
	"math"
	"slices"
)

// Volume is a dense 3-D scalar field, indexed x fastest (x + NX*(y + NY*z)).
type Volume struct {
	NX, NY, NZ int
	Data       []float32
}

// New allocates a zeroed volume.
func New(nx, ny, nz int) *Volume {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("volume: bad dims %dx%dx%d", nx, ny, nz))
	}
	return &Volume{NX: nx, NY: ny, NZ: nz, Data: make([]float32, nx*ny*nz)}
}

// Voxels reports the number of voxels.
func (v *Volume) Voxels() int { return v.NX * v.NY * v.NZ }

// Idx converts (x, y, z) to a linear index.
func (v *Volume) Idx(x, y, z int) int { return x + v.NX*(y+v.NY*z) }

// At returns the voxel at (x, y, z).
func (v *Volume) At(x, y, z int) float32 { return v.Data[v.Idx(x, y, z)] }

// Set assigns the voxel at (x, y, z).
func (v *Volume) Set(x, y, z int, val float32) { v.Data[v.Idx(x, y, z)] = val }

// SameShape reports whether u has identical dimensions.
func (v *Volume) SameShape(u *Volume) bool {
	return v.NX == u.NX && v.NY == u.NY && v.NZ == u.NZ
}

// MinMax returns the smallest and largest voxel values.
func (v *Volume) MinMax() (min, max float32) {
	min, max = v.Data[0], v.Data[0]
	for _, x := range v.Data {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// clamp restricts i to [0, n-1].
func clamp(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Trilinear samples the volume at one fractional coordinate with edge
// clamping. To sample a whole grid of coordinates use a Sampler.
//
//gtwvet:ignore reach reference: the volume and mri tests pin Sampler's planes and the scanner's moved scans against it bit for bit
func (v *Volume) Trilinear(x, y, z float64) float32 {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	z0 := int(math.Floor(z))
	fx := x - float64(x0)
	fy := y - float64(y0)
	fz := z - float64(z0)
	x1, y1, z1 := x0+1, y0+1, z0+1
	x0, y0, z0 = clamp(x0, v.NX), clamp(y0, v.NY), clamp(z0, v.NZ)
	x1, y1, z1 = clamp(x1, v.NX), clamp(y1, v.NY), clamp(z1, v.NZ)

	c000 := float64(v.At(x0, y0, z0))
	c100 := float64(v.At(x1, y0, z0))
	c010 := float64(v.At(x0, y1, z0))
	c110 := float64(v.At(x1, y1, z0))
	c001 := float64(v.At(x0, y0, z1))
	c101 := float64(v.At(x1, y0, z1))
	c011 := float64(v.At(x0, y1, z1))
	c111 := float64(v.At(x1, y1, z1))

	c00 := c000*(1-fx) + c100*fx
	c10 := c010*(1-fx) + c110*fx
	c01 := c001*(1-fx) + c101*fx
	c11 := c011*(1-fx) + c111*fx
	c0 := c00*(1-fy) + c10*fy
	c1 := c01*(1-fy) + c11*fy
	return float32(c0*(1-fz) + c1*fz)
}

// tap is one axis of a trilinear sample: the two clamped source indices
// around a coordinate, the weight f of the upper one and the weight
// g = 1-f of the lower one, computed once per tap instead of per voxel.
type tap struct {
	i0, i1 int
	f, g   float64
}

// tapAt turns a sampling coordinate along an axis of length n into a
// tap, exactly as Trilinear treats each of its three coordinates.
func tapAt(c float64, n int) tap {
	c0 := int(math.Floor(c))
	f := c - float64(c0)
	return tap{clamp(c0, n), clamp(c0+1, n), f, 1 - f}
}

// lines holds two equal-length lines of float64s, each tagged with the
// source index it was interpolated from (-1: none).
type lines struct {
	tag [2]int
	buf []float64
}

// reset empties the cache and sizes its lines to n values, reusing the
// backing array when it is large enough.
func (l *lines) reset(n int) {
	if cap(l.buf) < 2*n {
		l.buf = make([]float64, 2*n)
	}
	l.buf, l.tag = l.buf[:2*n], [2]int{-1, -1}
}

// get returns the line tagged t and true, or else a line now tagged t
// for the caller to compute and false. It never reuses the line tagged
// keep, the other line the caller needs at the same time.
func (l *lines) get(t, keep int) ([]float64, bool) {
	n, i := len(l.buf)/2, 0
	switch {
	case l.tag[0] == t:
		return l.buf[:n], true
	case l.tag[1] == t:
		return l.buf[n:], true
	case l.tag[0] == keep:
		i = 1
	}
	l.tag[i] = t
	return l.buf[i*n : (i+1)*n], false
}

// Sampler samples a volume trilinearly, with edge clamping, on the
// tensor grid xs x ys x zs of fractional coordinates, one output z-plane
// at a time: Plane(k, dst) writes len(xs)*len(ys) voxels, x fastest,
// voxel (i, j) being Trilinear(xs[i], ys[j], zs[k]) bit for bit.
//
// The grid being separable, the floor, clamps and weights are computed
// once per axis entry, and the interpolation runs one axis at a time
// with every intermediate kept: each source row a source z-slice needs
// is interpolated along x once, each such slice along y once into a
// len(xs) x len(ys) plane, and an output plane is the z-blend of the
// two slice planes around it, which stay cached for the next output
// plane. Each stage is the float64 expression Trilinear evaluates, so
// the bits are the same. Planes are cheapest asked for in z order.
//
// The zero value is ready for Reset or Shift. Both reuse the sampler's
// buffers, so a sampler that serves a loop allocates only while its
// grid grows. A Sampler is not safe for concurrent use.
type Sampler struct {
	v          *Volume
	tx, ty, tz []tap
	// run is the longest stretch tx[lo:hi] of x taps that read two
	// adjacent source voxels at a fixed offset from their index,
	// i0 = i + off and i1 = i0 + 1: a shift's unclamped interior, which
	// row interpolates from two contiguous source slices.
	run    struct{ lo, hi, off int }
	rows   lines // source rows of one slice, interpolated along x
	slices lines // source slices, interpolated along x and y
}

// Reset points the sampler at v and the grid xs x ys x zs.
func (s *Sampler) Reset(v *Volume, xs, ys, zs []float64) {
	s.tx, s.ty, s.tz = axisTaps(s.tx, xs, v.NX), axisTaps(s.ty, ys, v.NY), axisTaps(s.tz, zs, v.NZ)
	s.bind(v)
}

// axisTaps refills taps with the taps of coords along an axis of
// length n.
func axisTaps(taps []tap, coords []float64, n int) []tap {
	taps = slices.Grow(taps[:0], len(coords))
	for _, c := range coords {
		taps = append(taps, tapAt(c, n))
	}
	return taps
}

// bind attaches v, finds the x taps' contiguous run and empties both
// caches for the current taps.
func (s *Sampler) bind(v *Volume) {
	s.v = v
	s.run.lo, s.run.hi, s.run.off = 0, 0, 0
	for lo := 0; lo < len(s.tx); {
		off, hi := s.tx[lo].i0-lo, lo
		for hi < len(s.tx) && s.tx[hi].i0 == hi+off && s.tx[hi].i1 == hi+off+1 {
			hi++
		}
		if hi-lo > s.run.hi-s.run.lo {
			s.run.lo, s.run.hi, s.run.off = lo, hi, off
		}
		lo = max(hi, lo+1)
	}
	s.rows.reset(len(s.tx))
	s.slices.reset(len(s.tx) * len(s.ty))
}

// Plane writes output z-plane k into dst.
func (s *Sampler) Plane(k int, dst []float32) {
	z := s.tz[k]
	c0, c1 := s.slice(z.i0, z.i1), s.slice(z.i1, z.i0)
	dst, c1 = dst[:len(c0)], c1[:len(c0)] // bounds checked once, not per voxel
	for i := range dst {
		dst[i] = float32(c0[i]*z.g + c1[i]*z.f)
	}
}

// slice returns source slice z interpolated along x and y, computing it
// unless it is cached; keep is the other slice the caller needs.
func (s *Sampler) slice(z, keep int) []float64 {
	c, ok := s.slices.get(z, keep)
	if ok {
		return c
	}
	n := len(s.tx)
	s.rows.reset(n)
	for j, y := range s.ty {
		out := c[j*n : (j+1)*n]
		c00, c10 := s.row(y.i0, y.i1, z)[:n], s.row(y.i1, y.i0, z)[:n]
		for i := range out {
			out[i] = c00[i]*y.g + c10[i]*y.f
		}
	}
	return c
}

// row returns source row (y, z) interpolated along x, computing it
// unless it is cached; keep is the other row the caller needs.
func (s *Sampler) row(y, keep, z int) []float64 {
	c, ok := s.rows.get(y, keep)
	if ok {
		return c
	}
	r, c := s.v.row(y, z), c[:len(s.tx)]
	lo, hi, off := s.run.lo, s.run.hi, s.run.off
	for i, x := range s.tx[:lo] {
		c[i] = float64(r[x.i0])*x.g + float64(r[x.i1])*x.f
	}
	// The run: the same expression, its two source voxels read from
	// two contiguous slices instead of through each tap's indices.
	if lo < hi {
		out, taps := c[lo:hi], s.tx[lo:hi]
		r0, r1 := r[lo+off:hi+off], r[lo+off+1:hi+off+1]
		r0, r1, taps = r0[:len(out)], r1[:len(out)], taps[:len(out)]
		for i := range out {
			out[i] = float64(r0[i])*taps[i].g + float64(r1[i])*taps[i].f
		}
	}
	for i, x := range s.tx[hi:] {
		c[hi+i] = float64(r[x.i0])*x.g + float64(r[x.i1])*x.f
	}
	return c
}

// row returns source row (y, z).
func (v *Volume) row(y, z int) []float32 {
	start := v.Idx(0, y, z)
	return v.Data[start : start+v.NX]
}

// PlaneSampler returns the Plane method of a new Sampler on the grid
// xs x ys x zs.
func (v *Volume) PlaneSampler(xs, ys, zs []float64) (plane func(k int, dst []float32)) {
	s := new(Sampler)
	s.Reset(v, xs, ys, zs)
	return s.Plane
}

// planes writes every output plane into out, in z order.
func (s *Sampler) planes(out *Volume) {
	n := out.NX * out.NY
	for k := range s.tz {
		s.Plane(k, out.Data[k*n:(k+1)*n])
	}
}

// Shift writes v rigidly translated by (dx, dy, dz) voxels into dst,
// resampled trilinearly with edge clamping: dst at (x, y, z) is v at
// (x-dx, y-dy, z-dz). It reuses the sampler's buffers, so the sampler
// resamples without allocating once it has served a volume of this
// shape. dst must have v's shape and must not be v.
func (s *Sampler) Shift(dst, v *Volume, dx, dy, dz float64) {
	if !dst.SameShape(v) || &dst.Data[0] == &v.Data[0] {
		panic(fmt.Sprintf("volume: Shift into a %dx%dx%d volume that is not a distinct copy of the %dx%dx%d source",
			dst.NX, dst.NY, dst.NZ, v.NX, v.NY, v.NZ))
	}
	s.ResetShift(v, dx, dy, dz)
	s.planes(dst)
}

// ResetShift points the sampler at v and the grid Shift samples for the
// translation (dx, dy, dz), so that Plane(k, dst) writes z-plane k of
// the shifted volume: a caller that consumes each plane as it is made
// takes them in z order.
func (s *Sampler) ResetShift(v *Volume, dx, dy, dz float64) {
	s.tx, s.ty, s.tz = shiftTaps(s.tx, v.NX, dx), shiftTaps(s.ty, v.NY, dy), shiftTaps(s.tz, v.NZ, dz)
	s.bind(v)
}

// shiftTaps refills taps with the taps of coordinates i - d, i in
// [0, n).
func shiftTaps(taps []tap, n int, d float64) []tap {
	taps = slices.Grow(taps[:0], n)
	for i := 0; i < n; i++ {
		taps = append(taps, tapAt(float64(i)-d, n))
	}
	return taps
}

// Slab is a contiguous range of z-slices [Z0, Z1).
type Slab struct{ Z0, Z1 int }

// Slices reports the number of slices in the slab.
func (s Slab) Slices() int { return s.Z1 - s.Z0 }

// SlabDecomp splits nz slices across p parts as evenly as possible,
// mirroring FIRE's domain decomposition of the brain. Parts may be
// empty when p > nz (the extra PEs idle — the source of the imbalance
// the cost model charges for).
func SlabDecomp(nz, p int) []Slab {
	if p <= 0 {
		panic("volume: SlabDecomp with p <= 0")
	}
	out := make([]Slab, p)
	base := nz / p
	rem := nz % p
	z := 0
	for i := 0; i < p; i++ {
		n := base
		if i < rem {
			n++
		}
		out[i] = Slab{z, z + n}
		z += n
	}
	return out
}

// MaxSlabVoxels reports the largest per-part voxel count when an
// nx x ny x nz volume is slab-decomposed p ways — the load-balance
// denominator for parallel-time modeling.
func MaxSlabVoxels(nx, ny, nz, p int) int {
	slabs := SlabDecomp(nz, p)
	max := 0
	for _, s := range slabs {
		if v := s.Slices() * nx * ny; v > max {
			max = v
		}
	}
	return max
}
