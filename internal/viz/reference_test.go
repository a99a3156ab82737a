package viz

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"math"
	"math/rand"
	"testing"

	"repro/internal/volume"
)

// The tests in this file pin "same bits": figure 4's picture is now a
// MIP built from the anatomy's projection and activated from the merge's
// support box alone, and it must draw exactly the image of the
// pipelines it replaced, kept below: the whole-volume MergeFunctional
// and RenderMIP, and the plane loop that followed them (MergeSampler
// feeding one z-plane at a time into a planeMIP).

// MergeFunctional upsamples the functional correlation map onto the
// high-resolution anatomical grid (trilinear), as done before display
// on the Onyx 2: "it is merged with a high resolution (256x256x128
// voxels) image of the subject's head". It returns the upsampled map.
func MergeFunctional(anatHi, corr *volume.Volume) *volume.Volume {
	// axis maps target voxels 0..n-1 onto source coordinates 0..src-1;
	// a one-voxel target axis samples coordinate 0.
	axis := func(n, src int) []float64 {
		cs := make([]float64, n)
		if n > 1 {
			scale := float64(src-1) / float64(n-1)
			for i := range cs {
				cs[i] = float64(i) * scale
			}
		}
		return cs
	}
	out := volume.New(anatHi.NX, anatHi.NY, anatHi.NZ)
	plane, n := corr.PlaneSampler(axis(anatHi.NX, corr.NX), axis(anatHi.NY, corr.NY), axis(anatHi.NZ, corr.NZ)), out.NX*out.NY
	for k := 0; k < out.NZ; k++ {
		plane(k, out.Data[k*n:(k+1)*n])
	}
	return out
}

// RenderMIP produces a maximum-intensity projection of the anatomy
// along z with activated regions (upsampled correlation >= clip)
// highlighted — the figure-4 style "light areas are regions of the
// brain that are activated" rendering.
func RenderMIP(anatHi, funcHi *volume.Volume, clip float64) (*image.RGBA, error) {
	if !anatHi.SameShape(funcHi) {
		return nil, fmt.Errorf("viz: merged volumes differ in shape")
	}
	min, max := anatHi.MinMax()
	scale := 1.0
	if max > min {
		scale = 200 / float64(max-min)
	}
	// Walk the planes in memory order, keeping per pixel the running
	// peak and whether any voxel of its column is active — a max and an
	// OR, so the z order does not matter.
	pixels := anatHi.NX * anatHi.NY
	peak := make([]float32, pixels)
	active := make([]bool, pixels)
	for z := 0; z < anatHi.NZ; z++ {
		anat := anatHi.Data[z*pixels : (z+1)*pixels]
		fn := funcHi.Data[z*pixels : (z+1)*pixels]
		for p, v := range anat {
			if v > peak[p] {
				peak[p] = v
			}
			if float64(fn[p]) >= clip {
				active[p] = true
			}
		}
	}
	img := image.NewRGBA(image.Rect(0, 0, anatHi.NX, anatHi.NY))
	for y := 0; y < anatHi.NY; y++ {
		for x := 0; x < anatHi.NX; x++ {
			p := x + anatHi.NX*y
			g := uint8(float64(peak[p]-min) * scale)
			if active[p] {
				img.SetRGBA(x, y, color.RGBA{255, uint8(200), uint8(g / 2), 255})
			} else {
				img.SetRGBA(x, y, color.RGBA{g, g, g, 255})
			}
		}
	}
	return img, nil
}

// renderByPlanes is figure 4's plane loop over a whole anatomy: one
// reused plane of upsampled map, each anatomy plane a slice of anat.
func renderByPlanes(anat, corr *volume.Volume, clip float64) *image.RGBA {
	n := anat.NX * anat.NY
	merge, mip, fn := MergeSampler(corr, anat.NX, anat.NY, anat.NZ), newPlaneMIP(anat.NX, anat.NY, clip), make([]float32, n)
	for z := 0; z < anat.NZ; z++ {
		merge(z, fn)
		mip.Add(anat.Data[z*n:(z+1)*n], fn)
	}
	return mip.Image()
}

// renderProjected is figure 4's render over a whole anatomy: its
// projection, folded here as mri.HeadProjection computes it for the
// head, and the map's activity.
func renderProjected(anat, corr *volume.Volume, clip float64) *image.RGBA {
	n := anat.NX * anat.NY
	peak := make([]float32, n)
	for z := 0; z < anat.NZ; z++ {
		for p, v := range anat.Data[z*n : (z+1)*n] {
			if v > peak[p] {
				peak[p] = v
			}
		}
	}
	lo, hi := anat.MinMax()
	mip := NewMIP(anat.NX, peak, lo, hi)
	mip.Activate(corr, anat.NZ, clip)
	return mip.Image()
}

// requireSameImage fails unless the plane loop and the projection
// draw the whole-volume reference's pixels.
func requireSameImage(t *testing.T, name string, anat, corr *volume.Volume, clip float64) {
	t.Helper()
	want, err := RenderMIP(anat, MergeFunctional(anat, corr), clip)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		path   string
		render func(anat, corr *volume.Volume, clip float64) *image.RGBA
	}{{"plane-by-plane", renderByPlanes}, {"projected", renderProjected}} {
		got := r.render(anat, corr, clip)
		if got.Rect != want.Rect || !bytes.Equal(got.Pix, want.Pix) {
			t.Errorf("%s: %s image differs from MergeFunctional + RenderMIP", name, r.path)
		}
	}
}

func TestPlaneLoopEqualsWholeVolumeReferenceBitForBit(t *testing.T) {
	anatHi, corr := workbenchVolumes()
	requireSameImage(t, "256x256x128 from 64x64x16", anatHi, corr, 0.5)

	// Odd shapes, {anatomy, correlation map}: random anatomy with
	// all-negative columns and a map that crosses the clip.
	shapes := []struct {
		name       string
		anat, corr [3]int
	}{
		{"one-voxel y axis", [3]int{9, 1, 5}, [3]int{4, 3, 2}},
		{"one-voxel source axis", [3]int{8, 6, 4}, [3]int{5, 1, 3}},
		{"nz = 1", [3]int{16, 12, 1}, [3]int{4, 4, 3}},
		{"non-square", [3]int{40, 24, 9}, [3]int{7, 5, 3}},
		{"source larger than target", [3]int{10, 8, 4}, [3]int{33, 21, 9}},
		{"1x1x1", [3]int{1, 1, 1}, [3]int{3, 2, 2}},
	}
	rng := rand.New(rand.NewSource(26))
	for _, s := range shapes {
		anat := volume.New(s.anat[0], s.anat[1], s.anat[2])
		corr := volume.New(s.corr[0], s.corr[1], s.corr[2])
		for i := range anat.Data {
			anat.Data[i] = float32(rng.NormFloat64()*300 + 100)
		}
		for i := range corr.Data {
			corr.Data[i] = float32(rng.Float64()*2 - 1)
		}
		requireSameImage(t, s.name, anat, corr, 0.6)
	}
}

// MergeSampler upsamples the functional correlation map onto an
// nx x ny x nz high-resolution anatomical grid (trilinear), one z-plane
// at a time, as done before display on the Onyx 2: "it is merged with a
// high resolution (256x256x128 voxels) image of the subject's head".
//
// A target voxel whose eight taps all read +0 is +0: each product of +0
// and a weight in [0, 1] is +0, and so is each sum of two. So only the
// target rows, columns and planes whose taps reach the map's support —
// the box around its voxels that are not +0 — are sampled; every other
// voxel is written +0, the value sampling would give.
func MergeSampler(corr *volume.Volume, nx, ny, nz int) (plane func(z int, dst []float32)) {
	// axis maps target voxels 0..n-1 onto source coordinates 0..src-1;
	// a one-voxel target axis samples coordinate 0.
	axis := func(n, src int) []float64 {
		cs := make([]float64, n)
		if n > 1 {
			scale := float64(src-1) / float64(n-1)
			for i := range cs {
				cs[i] = float64(i) * scale
			}
		}
		return cs
	}
	xs, ys, zs := axis(nx, corr.NX), axis(ny, corr.NY), axis(nz, corr.NZ)
	lo, hi := support(corr)
	x0, x1 := window(xs, corr.NX, lo[0], hi[0])
	y0, y1 := window(ys, corr.NY, lo[1], hi[1])
	z0, z1 := window(zs, corr.NZ, lo[2], hi[2])
	if x0 == x1 || y0 == y1 {
		z0, z1 = 0, 0
	}
	var box func(k int, dst []float32)
	if z0 < z1 {
		box = corr.PlaneSampler(xs[x0:x1], ys[y0:y1], zs[z0:z1])
	}
	w, buf := x1-x0, make([]float32, (x1-x0)*(y1-y0))
	return func(z int, dst []float32) {
		dst = dst[:nx*ny]
		clear(dst)
		if z < z0 || z >= z1 {
			return
		}
		box(z-z0, buf)
		for y := y0; y < y1; y++ {
			copy(dst[y*nx+x0:y*nx+x1], buf[(y-y0)*w:])
		}
	}
}

// planeMIP accumulates, from z-planes handed to Add, a maximum-intensity
// projection of the anatomy along z with activated regions (upsampled
// correlation >= clip) highlighted: figure 4's "light areas are regions
// of the brain that are activated". Per pixel it keeps the running peak
// and an OR of activity, so the plane order does not matter, and over
// all voxels the anatomy's range, seeded from the first as MinMax does.
//
// It is MIP as it was while figure 4 folded the head plane by plane,
// with NewMIP and Add kept verbatim but for their names.
type planeMIP struct {
	nx       int
	clip     float64
	peak     []float32
	active   []bool
	min, max float32
	seeded   bool
}

// newPlaneMIP starts an empty nx x ny projection.
func newPlaneMIP(nx, ny int, clip float64) *planeMIP {
	return &planeMIP{nx: nx, clip: clip, peak: make([]float32, nx*ny), active: make([]bool, nx*ny)}
}

// Add folds in one z-plane of the anatomy and the same plane of the
// upsampled map, nx*ny voxels each, x fastest.
func (m *planeMIP) Add(anat, fn []float32) {
	if !m.seeded {
		m.min, m.max, m.seeded = anat[0], anat[0], true
	}
	// The anatomy's fold, then the map's: each keeps its voxel order.
	peak, lo, hi := m.peak[:len(anat)], m.min, m.max
	for p, v := range anat {
		if v > peak[p] {
			peak[p] = v
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	m.min, m.max = lo, hi
	active, clip := m.active[:len(anat)], m.clip
	for p, v := range fn[:len(anat)] {
		if float64(v) >= clip {
			active[p] = true
		}
	}
}

// Image renders the planes added so far, as MIP does.
func (m *planeMIP) Image() *image.RGBA {
	return (&MIP{nx: m.nx, peak: m.peak, active: m.active, min: m.min, max: m.max}).Image()
}

// The test below pins MergeSampler, and with it the support box that
// MIP.Activate samples, against the sampler of the whole grid it
// replaced, kept verbatim but for its name. Values are compared bit
// for bit, -0 and the infinities included, except that a NaN matches
// any NaN: the box's sampler may interpolate a voxel in another of the
// sampler's row loops than the whole grid's did, and which NaN a sum
// of two NaNs keeps is the compiler's choice of operand order (see
// internal/volume's reference test).

func parentMergeSampler(corr *volume.Volume, nx, ny, nz int) (plane func(z int, dst []float32)) {
	// axis maps target voxels 0..n-1 onto source coordinates 0..src-1;
	// a one-voxel target axis samples coordinate 0.
	axis := func(n, src int) []float64 {
		cs := make([]float64, n)
		if n > 1 {
			scale := float64(src-1) / float64(n-1)
			for i := range cs {
				cs[i] = float64(i) * scale
			}
		}
		return cs
	}
	return corr.PlaneSampler(axis(nx, corr.NX), axis(ny, corr.NY), axis(nz, corr.NZ))
}

var (
	negZero = float32(math.Copysign(0, -1))
	nan     = float32(math.NaN())
	inf     = float32(math.Inf(1))
)

// sparseMap is an nx x ny x nz map of +0 with fill(x, y, z) written
// inside the box [lo, hi] (inclusive, clipped to the map).
func sparseMap(nx, ny, nz int, lo, hi [3]int, fill func(x, y, z int) float32) *volume.Volume {
	v := volume.New(nx, ny, nz)
	for z := max(lo[2], 0); z <= min(hi[2], nz-1); z++ {
		for y := max(lo[1], 0); y <= min(hi[1], ny-1); y++ {
			for x := max(lo[0], 0); x <= min(hi[0], nx-1); x++ {
				v.Set(x, y, z, fill(x, y, z))
			}
		}
	}
	return v
}

func TestMergeSamplerEqualsParentBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	random := func(int, int, int) float32 { return float32(rng.Float64()*2 - 1) }
	special := func(x, y, z int) float32 {
		switch rng.Intn(6) {
		case 0:
			return negZero
		case 1:
			return inf
		case 2:
			return -inf
		case 3:
			return nan
		case 4:
			return 0
		}
		return float32(rng.NormFloat64())
	}
	_, fig4 := workbenchVolumes()
	cases := []struct {
		name       string
		corr       *volume.Volume
		nx, ny, nz int
	}{
		{"figure 4's map", fig4, 256, 256, 128},
		{"a sphere, as figure 4 draws", sparseMap(64, 64, 16, [3]int{19, 35, 5}, [3]int{29, 45, 15}, random), 256, 256, 128},
		{"specials in a box", sparseMap(16, 12, 6, [3]int{3, 2, 1}, [3]int{7, 9, 3}, special), 61, 45, 41},
		{"-0 alone", sparseMap(16, 12, 6, [3]int{5, 5, 2}, [3]int{5, 5, 2}, func(int, int, int) float32 { return negZero }), 61, 45, 41},
		{"NaN at a corner", sparseMap(16, 12, 6, [3]int{15, 11, 5}, [3]int{15, 11, 5}, func(int, int, int) float32 { return nan }), 61, 45, 41},
		{"Inf at the origin", sparseMap(16, 12, 6, [3]int{}, [3]int{}, func(int, int, int) float32 { return inf }), 61, 45, 41},
		{"all +0", volume.New(16, 12, 6), 61, 45, 41},
		{"all -0", sparseMap(4, 3, 2, [3]int{}, [3]int{3, 2, 1}, func(int, int, int) float32 { return negZero }), 13, 9, 5},
		{"support between downsampled taps", sparseMap(33, 21, 9, [3]int{5, 5, 4}, [3]int{5, 5, 4}, random), 10, 8, 4},
		{"downsampled box", sparseMap(33, 21, 9, [3]int{4, 3, 2}, [3]int{20, 9, 6}, special), 10, 8, 4},
		{"one-voxel target axes", sparseMap(8, 6, 4, [3]int{0, 2, 0}, [3]int{3, 4, 1}, special), 1, 7, 1},
		{"one-voxel source axis", sparseMap(5, 1, 3, [3]int{1, 0, 1}, [3]int{3, 0, 2}, random), 8, 6, 4},
		{"1x1x1", sparseMap(3, 2, 2, [3]int{2, 1, 1}, [3]int{2, 1, 1}, random), 1, 1, 1},
	}
	for _, c := range cases {
		got, want := MergeSampler(c.corr, c.nx, c.ny, c.nz), parentMergeSampler(c.corr, c.nx, c.ny, c.nz)
		gotP, wantP := make([]float32, c.nx*c.ny), make([]float32, c.nx*c.ny)
		for i := range gotP {
			gotP[i] = nan // stale: every voxel must be written
		}
		for z := 0; z < c.nz; z++ {
			got(z, gotP)
			want(z, wantP)
			for i := range wantP {
				g, w := gotP[i], wantP[i]
				if math.Float32bits(g) != math.Float32bits(w) && (g == g || w == w) {
					t.Fatalf("%s: plane %d voxel %d = %v (%#x), parent %v (%#x)", c.name, z, i, g, math.Float32bits(g), w, math.Float32bits(w))
				}
			}
		}
	}
}

// MIP.Activate must mark exactly the pixels the plane loop's map fold
// marks: MergeSampler's planes handed to planeMIP.Add. Where +0 >= clip
// (clip <= 0) the voxels outside the support box count too; a NaN clip
// marks nothing.
func TestActivateEqualsPlaneFoldBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	random := func(int, int, int) float32 { return float32(rng.Float64()*2 - 1) }
	negative := func(int, int, int) float32 { return float32(-rng.Float64()) }
	special := func(int, int, int) float32 {
		return []float32{negZero, inf, -inf, nan, 0, -0.5, 0.5}[rng.Intn(7)]
	}
	_, full := workbenchVolumes()
	// Two opposite corners: the support box is the whole map, but most
	// of it is +0.
	corners := sparseMap(9, 7, 5, [3]int{}, [3]int{}, random)
	corners.Set(8, 6, 4, -0.75)
	cases := []struct {
		name       string
		corr       *volume.Volume
		nx, ny, nz int
	}{
		{"figure 4's map", figure4Map(), 256, 256, 128},
		{"a map with no support", volume.New(16, 12, 6), 61, 45, 41},
		{"a one-voxel map", sparseMap(1, 1, 1, [3]int{}, [3]int{}, random), 13, 9, 5},
		{"one voxel of a map", sparseMap(16, 12, 6, [3]int{7, 4, 3}, [3]int{7, 4, 3}, random), 61, 45, 41},
		{"support touching every face", corners, 31, 23, 17},
		{"a map with no +0", full, 96, 80, 40},
		{"negative values", sparseMap(16, 12, 6, [3]int{2, 3, 1}, [3]int{9, 8, 4}, negative), 61, 45, 41},
		{"specials in a box", sparseMap(16, 12, 6, [3]int{3, 2, 1}, [3]int{7, 9, 3}, special), 61, 45, 41},
		{"-0 alone", sparseMap(16, 12, 6, [3]int{5, 5, 2}, [3]int{5, 5, 2}, func(int, int, int) float32 { return negZero }), 61, 45, 41},
		{"support between downsampled taps", sparseMap(33, 21, 9, [3]int{5, 5, 4}, [3]int{5, 5, 4}, random), 10, 8, 4},
		{"downsampled box", sparseMap(33, 21, 9, [3]int{4, 3, 2}, [3]int{20, 9, 6}, special), 10, 8, 4},
		{"one-voxel target axes", sparseMap(8, 6, 4, [3]int{0, 2, 0}, [3]int{3, 4, 1}, special), 1, 7, 1},
		{"1x1x1 target", sparseMap(3, 2, 2, [3]int{2, 1, 1}, [3]int{2, 1, 1}, random), 1, 1, 1},
	}
	for _, c := range cases {
		for _, clip := range []float64{0.5, 0.25, 0, math.Inf(-1), math.NaN()} {
			n := c.nx * c.ny
			merge, want, anat, fn := MergeSampler(c.corr, c.nx, c.ny, c.nz), newPlaneMIP(c.nx, c.ny, clip), make([]float32, n), make([]float32, n)
			for z := 0; z < c.nz; z++ {
				merge(z, fn)
				want.Add(anat, fn)
			}
			got := NewMIP(c.nx, make([]float32, n), 0, 0)
			got.Activate(c.corr, c.nz, clip)
			for p := range want.active {
				if got.active[p] != want.active[p] {
					t.Fatalf("%s, clip %v: pixel (%d, %d) active %v, plane fold %v", c.name, clip, p%c.nx, p/c.nx, got.active[p], want.active[p])
				}
			}
		}
	}
}
