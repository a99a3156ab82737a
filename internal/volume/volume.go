// Package volume provides the 3-D image type shared by the MRI scanner
// simulator, the FIRE analysis modules and the visualization pipeline:
// float32 voxel grids with trilinear resampling, rigid shifts, gradient
// computation and slab domain decomposition (the decomposition FIRE
// uses on the T3E).
//
// Two trilinear samplers give the same bits: Trilinear is the point
// sampler; Sampler takes a tensor grid (one coordinate list per axis),
// interpolates one axis at a time keeping each intermediate row and
// slice, and yields the grid one z-plane at a time — how the workbench
// merge streams the upsampled map. Resample and Shift collect its
// planes into a volume.
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

// Bytes reports the in-memory (and on-the-wire) size at 4 bytes/voxel.
func (v *Volume) Bytes() int { return v.Voxels() * 4 }

// Idx converts (x, y, z) to a linear index.
func (v *Volume) Idx(x, y, z int) int { return x + v.NX*(y+v.NY*z) }

// At returns the voxel at (x, y, z).
func (v *Volume) At(x, y, z int) float32 { return v.Data[v.Idx(x, y, z)] }

// Set assigns the voxel at (x, y, z).
func (v *Volume) Set(x, y, z int, val float32) { v.Data[v.Idx(x, y, z)] = val }

// Clone returns a deep copy.
func (v *Volume) Clone() *Volume {
	c := New(v.NX, v.NY, v.NZ)
	copy(c.Data, v.Data)
	return c
}

// SameShape reports whether u has identical dimensions.
func (v *Volume) SameShape(u *Volume) bool {
	return v.NX == u.NX && v.NY == u.NY && v.NZ == u.NZ
}

// Fill sets every voxel to val.
func (v *Volume) Fill(val float32) {
	for i := range v.Data {
		v.Data[i] = val
	}
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

// Mean returns the mean voxel value.
func (v *Volume) Mean() float64 {
	var s float64
	for _, x := range v.Data {
		s += float64(x)
	}
	return s / float64(len(v.Data))
}

// Std returns the population standard deviation of the voxel values.
func (v *Volume) Std() float64 {
	m := v.Mean()
	var s float64
	for _, x := range v.Data {
		d := float64(x) - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(v.Data)))
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
// clamping. To sample a whole grid of coordinates use Resample.
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
// around a coordinate and the weight of the upper one.
type tap struct {
	i0, i1 int
	f      float64
}

// tapAt turns a sampling coordinate along an axis of length n into a
// tap, exactly as Trilinear treats each of its three coordinates.
func tapAt(c float64, n int) tap {
	c0 := int(math.Floor(c))
	return tap{clamp(c0, n), clamp(c0+1, n), c - float64(c0)}
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
	rows       lines // source rows of one slice, interpolated along x
	slices     lines // source slices, interpolated along x and y
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

// bind attaches v and empties both caches for the current taps.
func (s *Sampler) bind(v *Volume) {
	s.v = v
	s.rows.reset(len(s.tx))
	s.slices.reset(len(s.tx) * len(s.ty))
}

// Plane writes output z-plane k into dst.
func (s *Sampler) Plane(k int, dst []float32) {
	z := s.tz[k]
	c0, c1 := s.slice(z.i0, z.i1), s.slice(z.i1, z.i0)
	dst, c1 = dst[:len(c0)], c1[:len(c0)] // bounds checked once, not per voxel
	for i := range dst {
		dst[i] = float32(c0[i]*(1-z.f) + c1[i]*z.f)
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
			out[i] = c00[i]*(1-y.f) + c10[i]*y.f
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
	for i, x := range s.tx {
		c[i] = float64(r[x.i0])*(1-x.f) + float64(r[x.i1])*x.f
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

// Resample returns the whole grid xs x ys x zs, plane by plane.
func (v *Volume) Resample(xs, ys, zs []float64) *Volume {
	var s Sampler
	s.Reset(v, xs, ys, zs)
	out := New(len(xs), len(ys), len(zs))
	s.planes(out)
	return out
}

// planes writes every output plane into out, in z order.
func (s *Sampler) planes(out *Volume) {
	n := out.NX * out.NY
	for k := range s.tz {
		s.Plane(k, out.Data[k*n:(k+1)*n])
	}
}

// Shift returns the volume rigidly translated by (dx, dy, dz) voxels
// (fractional allowed), resampled trilinearly with edge clamping. The
// result at (x,y,z) is the input at (x-dx, y-dy, z-dz).
func (v *Volume) Shift(dx, dy, dz float64) *Volume {
	out := New(v.NX, v.NY, v.NZ)
	new(Sampler).Shift(out, v, dx, dy, dz)
	return out
}

// Shift writes v rigidly translated by (dx, dy, dz) voxels into dst, as
// v.Shift does, reusing the sampler's buffers: the sampler resamples
// without allocating once it has served a volume of this shape. dst
// must have v's shape and must not be v.
func (s *Sampler) Shift(dst, v *Volume, dx, dy, dz float64) {
	if !dst.SameShape(v) || &dst.Data[0] == &v.Data[0] {
		panic(fmt.Sprintf("volume: Shift into a %dx%dx%d volume that is not a distinct copy of the %dx%dx%d source",
			dst.NX, dst.NY, dst.NZ, v.NX, v.NY, v.NZ))
	}
	s.tx, s.ty, s.tz = shiftTaps(s.tx, v.NX, dx), shiftTaps(s.ty, v.NY, dy), shiftTaps(s.tz, v.NZ, dz)
	s.bind(v)
	s.planes(dst)
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

// Gradient returns central-difference spatial gradients (gx, gy, gz) at
// voxel (x, y, z), using one-sided differences at the boundary.
func (v *Volume) Gradient(x, y, z int) (gx, gy, gz float64) {
	sample := func(a, b float32, h float64) float64 { return float64(a-b) / h }
	xm, xp := clamp(x-1, v.NX), clamp(x+1, v.NX)
	ym, yp := clamp(y-1, v.NY), clamp(y+1, v.NY)
	zm, zp := clamp(z-1, v.NZ), clamp(z+1, v.NZ)
	gx = sample(v.At(xp, y, z), v.At(xm, y, z), float64(xp-xm))
	gy = sample(v.At(x, yp, z), v.At(x, ym, z), float64(yp-ym))
	gz = sample(v.At(x, y, zp), v.At(x, y, zm), float64(zp-zm))
	if xp == xm {
		gx = 0
	}
	if yp == ym {
		gy = 0
	}
	if zp == zm {
		gz = 0
	}
	return gx, gy, gz
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
