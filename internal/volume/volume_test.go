package volume

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIndexRoundTrip(t *testing.T) {
	v := New(4, 5, 6)
	n := 0
	for z := 0; z < 6; z++ {
		for y := 0; y < 5; y++ {
			for x := 0; x < 4; x++ {
				if v.Idx(x, y, z) != n {
					t.Fatalf("Idx(%d,%d,%d) = %d, want %d", x, y, z, v.Idx(x, y, z), n)
				}
				n++
			}
		}
	}
	if v.Voxels() != 120 || v.Bytes() != 480 {
		t.Errorf("Voxels=%d Bytes=%d", v.Voxels(), v.Bytes())
	}
}

func TestSetAtCloneFill(t *testing.T) {
	v := New(3, 3, 3)
	v.Set(1, 2, 0, 7)
	if v.At(1, 2, 0) != 7 {
		t.Error("Set/At")
	}
	c := v.Clone()
	c.Set(1, 2, 0, 9)
	if v.At(1, 2, 0) != 7 {
		t.Error("Clone aliases")
	}
	v.Fill(2)
	if v.At(0, 0, 0) != 2 || v.At(2, 2, 2) != 2 {
		t.Error("Fill")
	}
	if !v.SameShape(c) {
		t.Error("SameShape")
	}
	if v.SameShape(New(3, 3, 4)) {
		t.Error("SameShape false positive")
	}
}

func TestStats(t *testing.T) {
	v := New(2, 1, 1)
	v.Data[0], v.Data[1] = 1, 3
	if m := v.Mean(); m != 2 {
		t.Errorf("Mean = %v", m)
	}
	if s := v.Std(); s != 1 {
		t.Errorf("Std = %v", s)
	}
	min, max := v.MinMax()
	if min != 1 || max != 3 {
		t.Errorf("MinMax = %v,%v", min, max)
	}
}

func TestTrilinearAtGridPoints(t *testing.T) {
	v := New(3, 3, 3)
	for i := range v.Data {
		v.Data[i] = float32(i)
	}
	for z := 0; z < 3; z++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 3; x++ {
				got := v.Trilinear(float64(x), float64(y), float64(z))
				if got != v.At(x, y, z) {
					t.Fatalf("Trilinear at grid (%d,%d,%d) = %v, want %v", x, y, z, got, v.At(x, y, z))
				}
			}
		}
	}
}

func TestTrilinearMidpoint(t *testing.T) {
	v := New(2, 2, 2)
	for i := range v.Data {
		v.Data[i] = float32(i) // 0..7
	}
	got := v.Trilinear(0.5, 0.5, 0.5)
	if math.Abs(float64(got)-3.5) > 1e-6 {
		t.Errorf("center sample = %v, want 3.5", got)
	}
}

// Property: trilinear interpolation of a linear field is exact.
func TestTrilinearReproducesLinearField(t *testing.T) {
	v := New(8, 8, 8)
	for z := 0; z < 8; z++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				v.Set(x, y, z, float32(2*x-3*y+z))
			}
		}
	}
	f := func(a, b, c uint8) bool {
		// Interior fractional points only.
		x := 0.5 + 6*float64(a)/256
		y := 0.5 + 6*float64(b)/256
		z := 0.5 + 6*float64(c)/256
		want := 2*x - 3*y + z
		got := float64(v.Trilinear(x, y, z))
		return math.Abs(got-want) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestShiftRecoversIntegerTranslation(t *testing.T) {
	v := New(8, 8, 8)
	v.Set(4, 4, 4, 100)
	s := v.Shift(2, 1, -1)
	if s.At(6, 5, 3) != 100 {
		t.Errorf("shifted peak at wrong place: %v", s.At(6, 5, 3))
	}
}

func TestGradientOfLinearField(t *testing.T) {
	v := New(6, 6, 6)
	for z := 0; z < 6; z++ {
		for y := 0; y < 6; y++ {
			for x := 0; x < 6; x++ {
				v.Set(x, y, z, float32(3*x+5*y-2*z))
			}
		}
	}
	gx, gy, gz := v.Gradient(3, 3, 3)
	if gx != 3 || gy != 5 || gz != -2 {
		t.Errorf("gradient = (%v,%v,%v), want (3,5,-2)", gx, gy, gz)
	}
	// Boundary gradients use one-sided differences but stay exact for
	// linear fields.
	gx, gy, gz = v.Gradient(0, 0, 5)
	if gx != 3 || gy != 5 || gz != -2 {
		t.Errorf("boundary gradient = (%v,%v,%v)", gx, gy, gz)
	}
}

func TestSlabDecompCoversExactly(t *testing.T) {
	f := func(nzRaw uint8, pRaw uint16) bool {
		nz := int(nzRaw%64) + 1
		p := int(pRaw%300) + 1
		slabs := SlabDecomp(nz, p)
		if len(slabs) != p {
			return false
		}
		z := 0
		total := 0
		for _, s := range slabs {
			if s.Z0 != z || s.Z1 < s.Z0 {
				return false
			}
			total += s.Slices()
			z = s.Z1
		}
		if total != nz || z != nz {
			return false
		}
		// Balance: sizes differ by at most 1.
		min, max := slabs[0].Slices(), slabs[0].Slices()
		for _, s := range slabs {
			if s.Slices() < min {
				min = s.Slices()
			}
			if s.Slices() > max {
				max = s.Slices()
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMaxSlabVoxels(t *testing.T) {
	// 16 slices over 8 parts: 2 slices each of 64x64.
	if got := MaxSlabVoxels(64, 64, 16, 8); got != 2*64*64 {
		t.Errorf("MaxSlabVoxels = %d", got)
	}
	// 16 slices over 32 parts: the busiest part still has 1 slice.
	if got := MaxSlabVoxels(64, 64, 16, 32); got != 64*64 {
		t.Errorf("MaxSlabVoxels(p>nz) = %d", got)
	}
}

// Property: a zero shift is the identity, and shifting by +d then -d
// returns close to the original for smooth fields.
func TestShiftProperties(t *testing.T) {
	// A smooth field: double trilinear resampling attenuates spatial
	// frequencies, so the round-trip bound only holds for fields slow
	// relative to the voxel grid.
	v := New(10, 10, 10)
	for z := 0; z < 10; z++ {
		for y := 0; y < 10; y++ {
			for x := 0; x < 10; x++ {
				v.Set(x, y, z, float32(math.Sin(float64(x)*0.25)+math.Cos(float64(y)*0.2)+float64(z)*0.1))
			}
		}
	}
	zero := v.Shift(0, 0, 0)
	for i := range v.Data {
		if zero.Data[i] != v.Data[i] {
			t.Fatalf("zero shift changed voxel %d", i)
		}
	}
	f := func(a, b, c int8) bool {
		dx := float64(a) / 200 // up to +-0.64 voxels
		dy := float64(b) / 200
		dz := float64(c) / 200
		back := v.Shift(dx, dy, dz).Shift(-dx, -dy, -dz)
		// Interior voxels restored within interpolation loss.
		for z := 2; z < 8; z++ {
			for y := 2; y < 8; y++ {
				for x := 2; x < 8; x++ {
					if math.Abs(float64(back.At(x, y, z)-v.At(x, y, z))) > 0.05 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBadDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0,1,1) did not panic")
		}
	}()
	New(0, 1, 1)
}

func TestSlabDecompBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SlabDecomp p=0 did not panic")
		}
	}()
	SlabDecomp(16, 0)
}

// randomVolume fills an nx x ny x nz volume with seeded noise.
func randomVolume(nx, ny, nz int, seed int64) *Volume {
	rng := rand.New(rand.NewSource(seed))
	v := New(nx, ny, nz)
	for i := range v.Data {
		v.Data[i] = float32(rng.NormFloat64() * 100)
	}
	return v
}

// reused is one sampler every bit-for-bit check below also samples
// through, so its caches are carried from grid to grid and volume to
// volume: a stale row or slice would show as a wrong voxel.
var reused Sampler

// requireResampleIsTrilinear checks Resample against the per-voxel
// Trilinear loop it replaced, to the last bit, and the reused sampler
// too, asked for its planes in reverse z order.
func requireResampleIsTrilinear(t *testing.T, name string, v *Volume, xs, ys, zs []float64) {
	t.Helper()
	got := v.Resample(xs, ys, zs)
	if got.NX != len(xs) || got.NY != len(ys) || got.NZ != len(zs) {
		t.Fatalf("%s: shape %dx%dx%d, want %dx%dx%d", name, got.NX, got.NY, got.NZ, len(xs), len(ys), len(zs))
	}
	reused.Reset(v, xs, ys, zs)
	n := len(xs) * len(ys)
	plane := make([]float32, n)
	for k := len(zs) - 1; k >= 0; k-- {
		reused.Plane(k, plane)
		for i, g := range plane {
			if math.Float32bits(g) != math.Float32bits(got.Data[k*n+i]) {
				t.Fatalf("%s: reused sampler plane %d voxel %d = %v, Resample %v", name, k, i, g, got.Data[k*n+i])
			}
		}
	}
	for k, z := range zs {
		for j, y := range ys {
			for i, x := range xs {
				want := v.Trilinear(x, y, z)
				if g := got.At(i, j, k); math.Float32bits(g) != math.Float32bits(want) {
					t.Fatalf("%s: voxel (%d,%d,%d) at (%v,%v,%v) = %v, Trilinear %v", name, i, j, k, x, y, z, g, want)
				}
			}
		}
	}
}

func TestResampleEqualsTrilinearBitForBit(t *testing.T) {
	shifted := func(n int, d float64) []float64 {
		cs := make([]float64, n)
		for i := range cs {
			cs[i] = float64(i) - d
		}
		return cs
	}
	for seed, dims := range [][3]int{{9, 7, 5}, {16, 1, 4}, {1, 1, 1}, {12, 10, 3}} {
		v := randomVolume(dims[0], dims[1], dims[2], int64(seed))
		rng := rand.New(rand.NewSource(int64(100 + seed)))
		shifts := [][3]float64{
			{0, 0, 0},
			{0.3, -0.7, 0.25},     // fractional, mixed sign
			{-1.6, 2.4, -3.9},     // more than one voxel
			{2, -1, 1},            // exactly integral
			{1e6, -1e6, 1e9},      // far out of range: every tap clamped
			{-0.5, 1e-12, -1e-12}, // a hair off the grid on either side
			{0.25, 0.5, 0.75},     // fractional, all positive: taps below
			{-0.25, -0.5, -0.75},  // fractional, all negative: taps above
			{0, 0, 0.5},           // z alone: every output plane blends two slices
		}
		into := New(v.NX, v.NY, v.NZ)
		for i := 0; i < 6; i++ {
			shifts = append(shifts, [3]float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2, rng.NormFloat64() * 2})
		}
		for _, d := range shifts {
			xs, ys, zs := shifted(v.NX, d[0]), shifted(v.NY, d[1]), shifted(v.NZ, d[2])
			requireResampleIsTrilinear(t, "shift", v, xs, ys, zs)
			// Shift is that grid, and so is the reused sampler's Shift
			// into a reused volume.
			got, want := v.Shift(d[0], d[1], d[2]), v.Resample(xs, ys, zs)
			reused.Shift(into, v, d[0], d[1], d[2])
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("Shift%v voxel %d = %v, Resample %v", d, i, got.Data[i], want.Data[i])
				}
				if math.Float32bits(into.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("Sampler.Shift%v voxel %d = %v, Resample %v", d, i, into.Data[i], want.Data[i])
				}
			}
		}
		// An upsampling grid, as the functional merge builds it: a
		// different shape than the source, coordinates i * (n-1)/(m-1).
		scaled := func(m, n int) []float64 {
			cs := make([]float64, m)
			scale := float64(n-1) / float64(m-1)
			for i := range cs {
				cs[i] = float64(i) * scale
			}
			return cs
		}
		requireResampleIsTrilinear(t, "upsample", v, scaled(29, v.NX), scaled(23, v.NY), scaled(11, v.NZ))
		// figure 4's ratios: 4x in x and y, 8x in z, so each source row
		// and slice serves several output rows and planes.
		up := func(n, r int) []float64 { return scaled(max(r*(n-1)+1, 2), n) }
		requireResampleIsTrilinear(t, "upsample 4x4x8", v, up(v.NX, 4), up(v.NY, 4), up(v.NZ, 8))
		requireResampleIsTrilinear(t, "downsample", v, scaled(3, v.NX), scaled(2, v.NY), scaled(2, v.NZ))
		// z taps clamped at both ends (i0 == i1) around interior ones,
		// and y coordinates out of order and repeated.
		spread := func(m int, lo, hi float64) []float64 {
			cs := make([]float64, m)
			for i := range cs {
				cs[i] = lo + (hi-lo)*float64(i)/float64(max(m-1, 1))
			}
			return cs
		}
		ys := spread(v.NY+2, -1.5, float64(v.NY)+0.5)
		ys[0], ys[len(ys)-1] = ys[len(ys)-1], ys[0]
		ys = append(ys, ys[1], ys[1])
		requireResampleIsTrilinear(t, "clamped", v, spread(v.NX, 0.1, float64(v.NX)-0.9), ys, spread(2*v.NZ+3, -2.25, float64(v.NZ)+1.25))
	}
}
