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

// The tests in this file pin "same bits": figure 4's merge and MIP run
// plane by plane (MergeSampler feeding MIP.Add), and must draw exactly
// the image of the whole-volume pipeline below — MergeFunctional and
// RenderMIP as they were, kept verbatim.

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
	merge, mip, fn := MergeSampler(corr, anat.NX, anat.NY, anat.NZ), NewMIP(anat.NX, anat.NY, clip), make([]float32, n)
	for z := 0; z < anat.NZ; z++ {
		merge(z, fn)
		mip.Add(anat.Data[z*n:(z+1)*n], fn)
	}
	return mip.Image()
}

// requireSameImage fails unless the plane loop and the whole-volume
// reference draw identical pixels.
func requireSameImage(t *testing.T, name string, anat, corr *volume.Volume, clip float64) {
	t.Helper()
	want, err := RenderMIP(anat, MergeFunctional(anat, corr), clip)
	if err != nil {
		t.Fatal(err)
	}
	got := renderByPlanes(anat, corr, clip)
	if got.Rect != want.Rect || !bytes.Equal(got.Pix, want.Pix) {
		t.Errorf("%s: plane-by-plane image differs from MergeFunctional + RenderMIP", name)
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

// The tests below pin figure 4's plane kernels against the code
// they replaced, kept verbatim but for its names: MergeSampler samples
// only the box of target voxels whose taps reach the map's non-+0
// support, and MIP.Add folds the anatomy and the map in two loops.
// Values are compared bit for bit, -0 and the infinities included,
// except that a NaN matches any NaN: the box's sampler may interpolate
// a voxel in another of the sampler's row loops than the whole grid's
// did, and which NaN a sum of two NaNs keeps is the compiler's choice
// of operand order (see internal/volume's reference test).

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

func (m *MIP) parentAdd(anat, fn []float32) {
	if !m.seeded {
		m.min, m.max, m.seeded = anat[0], anat[0], true
	}
	for p, v := range anat {
		if v > m.peak[p] {
			m.peak[p] = v
		}
		if v < m.min {
			m.min = v
		}
		if v > m.max {
			m.max = v
		}
		if float64(fn[p]) >= m.clip {
			m.active[p] = true
		}
	}
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

func TestMIPAddEqualsParentBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	values := []float32{negZero, 0, inf, -inf, nan, 0.5, 0.49999997, -3}
	// A head-like anatomy too — only ±0, the shell's 300 and brain
	// values — so that the range's minimum ties -0 with +0.
	head := []float32{negZero, 0, 0, 300, 812.5, negZero}
	for _, clip := range []float64{0.5, math.Inf(-1), math.NaN(), 0.25} {
		const nx, ny = 9, 7
		got, want := NewMIP(nx, ny, clip), NewMIP(nx, ny, clip)
		anat, fn := make([]float32, nx*ny), make([]float32, nx*ny)
		for z := 0; z < 12; z++ {
			for i := range anat {
				anat[i], fn[i] = float32(rng.NormFloat64()*100), float32(rng.Float64())
				if clip == 0.25 {
					anat[i] = head[rng.Intn(len(head))]
				}
				if rng.Intn(3) == 0 && clip != 0.25 {
					anat[i] = values[rng.Intn(len(values))]
				}
				if rng.Intn(3) == 0 {
					fn[i] = values[rng.Intn(len(values))]
				}
			}
			if z == 0 && clip != clip {
				anat[0] = nan // the seed of the range
			}
			got.Add(anat, fn)
			want.parentAdd(anat, fn)
			name := fmt.Sprintf("clip %v plane %d", clip, z)
			if math.Float32bits(got.min) != math.Float32bits(want.min) || math.Float32bits(got.max) != math.Float32bits(want.max) {
				t.Fatalf("%s: range [%v, %v], parent [%v, %v]", name, got.min, got.max, want.min, want.max)
			}
			for p := range want.peak {
				if math.Float32bits(got.peak[p]) != math.Float32bits(want.peak[p]) || got.active[p] != want.active[p] {
					t.Fatalf("%s: pixel %d peak %v active %v, parent %v %v", name, p, got.peak[p], got.active[p], want.peak[p], want.active[p])
				}
			}
		}
	}
}
