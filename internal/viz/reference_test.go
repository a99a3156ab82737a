package viz

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
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
