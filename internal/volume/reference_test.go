package volume

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The test in this file pins "same bits": Sampler reads a shift's
// unclamped interior from contiguous row slices and takes each tap's
// 1-f once, and must write exactly what the sampler it replaced —
// refSampler below, kept verbatim but for its names — writes.
//
// Every value is compared bit for bit, -0 and the infinities included,
// except that a NaN matches any NaN. Which NaN a sum of two NaNs (say
// NaN·w from the source and Inf·0 from a zero weight) keeps depends on
// which operand the compiler's register allocator makes the
// destination of the add, and Go fixes neither that nor a NaN's
// payload: the parent's own row loop keeps the other NaN when it is
// compiled inside a differently shaped function. Whether a voxel is
// NaN does not depend on it.

// refTap is tap as it was: no precomputed 1-f.
type refTap struct {
	i0, i1 int
	f      float64
}

func refTapAt(c float64, n int) refTap {
	c0 := int(math.Floor(c))
	return refTap{clamp(c0, n), clamp(c0+1, n), c - float64(c0)}
}

type refSampler struct {
	v          *Volume
	tx, ty, tz []refTap
	rows       lines // source rows of one slice, interpolated along x
	slices     lines // source slices, interpolated along x and y
}

func (s *refSampler) Reset(v *Volume, xs, ys, zs []float64) {
	s.tx, s.ty, s.tz = refAxisTaps(s.tx, xs, v.NX), refAxisTaps(s.ty, ys, v.NY), refAxisTaps(s.tz, zs, v.NZ)
	s.bind(v)
}

func refAxisTaps(taps []refTap, coords []float64, n int) []refTap {
	taps = slices.Grow(taps[:0], len(coords))
	for _, c := range coords {
		taps = append(taps, refTapAt(c, n))
	}
	return taps
}

func (s *refSampler) bind(v *Volume) {
	s.v = v
	s.rows.reset(len(s.tx))
	s.slices.reset(len(s.tx) * len(s.ty))
}

func (s *refSampler) Plane(k int, dst []float32) {
	z := s.tz[k]
	c0, c1 := s.slice(z.i0, z.i1), s.slice(z.i1, z.i0)
	dst, c1 = dst[:len(c0)], c1[:len(c0)] // bounds checked once, not per voxel
	for i := range dst {
		dst[i] = float32(c0[i]*(1-z.f) + c1[i]*z.f)
	}
}

func (s *refSampler) slice(z, keep int) []float64 {
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

func (s *refSampler) row(y, keep, z int) []float64 {
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

func (s *refSampler) planes(out *Volume) {
	n := out.NX * out.NY
	for k := range s.tz {
		s.Plane(k, out.Data[k*n:(k+1)*n])
	}
}

func (s *refSampler) Shift(dst, v *Volume, dx, dy, dz float64) {
	s.tx, s.ty, s.tz = refShiftTaps(s.tx, v.NX, dx), refShiftTaps(s.ty, v.NY, dy), refShiftTaps(s.tz, v.NZ, dz)
	s.bind(v)
	s.planes(dst)
}

func refShiftTaps(taps []refTap, n int, d float64) []refTap {
	taps = slices.Grow(taps[:0], n)
	for i := 0; i < n; i++ {
		taps = append(taps, refTapAt(float64(i)-d, n))
	}
	return taps
}

// specialVolume is randomVolume with about one voxel in eight replaced
// by -0, +Inf, -Inf or NaN.
func specialVolume(nx, ny, nz int, seed int64) *Volume {
	v := randomVolume(nx, ny, nz, seed)
	rng := rand.New(rand.NewSource(seed + 1000))
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for i := range v.Data {
		if rng.Intn(8) == 0 {
			v.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return v
}

// sameBits reports whether a and b have the same bits, or are both NaN.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}

// requireSameBits fails unless got and want hold the same voxel bits,
// a NaN matching any NaN.
func requireSameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: voxel %d = %v (%#x), parent sampler %v (%#x)", name, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func TestSamplerEqualsParentSamplerBitForBit(t *testing.T) {
	// One sampler of each kind serves every case, so cached rows and
	// slices and the contiguous run carry over from grid to grid.
	var s Sampler
	var ref refSampler
	for seed, dims := range [][3]int{{64, 64, 16}, {9, 7, 5}, {16, 1, 4}, {1, 1, 1}, {2, 3, 2}, {33, 12, 3}} {
		for _, v := range []*Volume{randomVolume(dims[0], dims[1], dims[2], int64(seed)), specialVolume(dims[0], dims[1], dims[2], int64(seed))} {
			rng := rand.New(rand.NewSource(int64(200 + seed)))
			shifts := [][3]float64{
				{0, 0, 0},
				{math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1)}, // a converged fit's -d
				{0.8, -0.4, 0},        // fire-rt-session's subject motion
				{-0.4, 0.3, -0.2},     // BenchmarkEstimateShift's correction
				{2, -1, 1},            // exactly integral
				{-1.6, 2.4, -3.9},     // more than one voxel
				{1e6, -1e6, 1e9},      // far out of range: every tap clamped
				{-0.5, 1e-12, -1e-12}, // a hair off the grid on either side
				{1 - 1e-17, 1e-17, 0.5},
			}
			for i := 0; i < 6; i++ {
				shifts = append(shifts, [3]float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2, rng.NormFloat64() * 2})
			}
			got, want := New(v.NX, v.NY, v.NZ), New(v.NX, v.NY, v.NZ)
			for _, d := range shifts {
				s.Shift(got, v, d[0], d[1], d[2])
				ref.Shift(want, v, d[0], d[1], d[2])
				requireSameBits(t, "Shift", got.Data, want.Data)
				// Plane by plane after ResetShift, as the motion fit asks.
				s.ResetShift(v, d[0], d[1], d[2])
				n := v.NX * v.NY
				for k := 0; k < v.NZ; k++ {
					s.Plane(k, got.Data[k*n:(k+1)*n])
				}
				requireSameBits(t, "ResetShift", got.Data, want.Data)
			}
			// Grids through Reset: a shift's coordinates and figure 4's
			// upsampling, whose x taps have no run longer than one.
			coords := func(m, n int, scale, d float64) []float64 {
				cs := make([]float64, m)
				for i := range cs {
					cs[i] = float64(i)*scale*float64(max(n-1, 0))/float64(max(m-1, 1)) - d
				}
				return cs
			}
			for _, g := range []struct{ mx, my, mz int }{{v.NX, v.NY, v.NZ}, {4*v.NX - 3, 4*v.NY - 3, 8*v.NZ - 7}} {
				xs, ys, zs := coords(max(g.mx, 1), v.NX, 1, 0.3), coords(max(g.my, 1), v.NY, 1, -0.6), coords(max(g.mz, 1), v.NZ, 1, 0.1)
				s.Reset(v, xs, ys, zs)
				ref.Reset(v, xs, ys, zs)
				gotP, wantP := make([]float32, len(xs)*len(ys)), make([]float32, len(xs)*len(ys))
				for k := range zs {
					s.Plane(k, gotP)
					ref.Plane(k, wantP)
					requireSameBits(t, "Reset", gotP, wantP)
				}
			}
		}
	}
}
