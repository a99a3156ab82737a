// Package viz reimplements the visualization stages of the fMRI
// project: the 2-D overlay display of the FIRE GUI (figure 3), the
// merge of the functional data with the high-resolution anatomical
// head scan for 3-D display (figure 4), a maximum-intensity-projection
// renderer standing in for AVS/AVOCADO — both streaming z-planes, so no
// 256x256x128 volume is built — and the Responsive Workbench
// frame-streaming arithmetic that section 4 quotes ("less than 8
// frames/second over a 622 Mbit/s ATM network using classical IP").
package viz

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"

	"repro/internal/atm"
	"repro/internal/volume"
)

// RenderOverlay produces the FIRE GUI's 2-D display for slice z:
// grayscale anatomy with voxels whose |correlation| >= clip overlaid in
// color (warm colors for positive, cold for negative correlation).
func RenderOverlay(anat, corr *volume.Volume, z int, clip float64) (*image.RGBA, error) {
	if !anat.SameShape(corr) {
		return nil, fmt.Errorf("viz: anatomy %dx%dx%d and correlation %dx%dx%d differ",
			anat.NX, anat.NY, anat.NZ, corr.NX, corr.NY, corr.NZ)
	}
	if z < 0 || z >= anat.NZ {
		return nil, fmt.Errorf("viz: slice %d out of range [0,%d)", z, anat.NZ)
	}
	min, max := anat.MinMax()
	scale := 1.0
	if max > min {
		scale = 255 / float64(max-min)
	}
	img := image.NewRGBA(image.Rect(0, 0, anat.NX, anat.NY))
	for y := 0; y < anat.NY; y++ {
		for x := 0; x < anat.NX; x++ {
			g := uint8(float64(anat.At(x, y, z)-min) * scale)
			c := color.RGBA{g, g, g, 255}
			r := float64(corr.At(x, y, z))
			if math.Abs(r) >= clip {
				// Color code the coefficient: clip..1 maps to
				// red..yellow, negative to blue..cyan.
				t := (math.Abs(r) - clip) / math.Max(1e-9, 1-clip)
				if t > 1 {
					t = 1
				}
				if r > 0 {
					c = color.RGBA{255, uint8(80 + 175*t), 0, 255}
				} else {
					c = color.RGBA{0, uint8(80 + 175*t), 255, 255}
				}
			}
			img.SetRGBA(x, y, c)
		}
	}
	return img, nil
}

// WritePNG encodes an image as PNG.
func WritePNG(w io.Writer, img image.Image) error { return png.Encode(w, img) }

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

// support returns the smallest box [lo, hi] (per axis, inclusive)
// holding every voxel of v that is not +0; lo > hi when there is none.
func support(v *volume.Volume) (lo, hi [3]int) {
	lo, hi = [3]int{v.NX, v.NY, v.NZ}, [3]int{-1, -1, -1}
	i := 0
	for z := 0; z < v.NZ; z++ {
		for y := 0; y < v.NY; y++ {
			for x := 0; x < v.NX; x++ {
				if math.Float32bits(v.Data[i]) != 0 {
					for a, c := range [3]int{x, y, z} {
						lo[a], hi[a] = min(lo[a], c), max(hi[a], c)
					}
				}
				i++
			}
		}
	}
	return lo, hi
}

// window returns the run [a, b) of the increasing coordinates cs whose
// trilinear taps along an axis of n voxels — floor(c) and floor(c)+1,
// each clamped to [0, n) — reach a source index in [lo, hi].
func window(cs []float64, n, lo, hi int) (a, b int) {
	reaches := func(c float64) bool {
		i := int(math.Floor(c))
		return min(max(i, 0), n-1) <= hi && min(max(i+1, 0), n-1) >= lo
	}
	for a < len(cs) && !reaches(cs[a]) {
		a++
	}
	for b = a; b < len(cs) && reaches(cs[b]); b++ {
	}
	return a, b
}

// MIP accumulates, from z-planes handed to Add, a maximum-intensity
// projection of the anatomy along z with activated regions (upsampled
// correlation >= clip) highlighted: figure 4's "light areas are regions
// of the brain that are activated". Per pixel it keeps the running peak
// and an OR of activity, so the plane order does not matter, and over
// all voxels the anatomy's range, seeded from the first as MinMax does.
type MIP struct {
	nx       int
	clip     float64
	peak     []float32
	active   []bool
	min, max float32
	seeded   bool
}

// NewMIP starts an empty nx x ny projection.
func NewMIP(nx, ny int, clip float64) *MIP {
	return &MIP{nx: nx, clip: clip, peak: make([]float32, nx*ny), active: make([]bool, nx*ny)}
}

// Add folds in one z-plane of the anatomy and the same plane of the
// upsampled map, nx*ny voxels each, x fastest.
func (m *MIP) Add(anat, fn []float32) {
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

// Image renders the planes added so far.
func (m *MIP) Image() *image.RGBA {
	scale := 1.0
	if m.max > m.min {
		scale = 200 / float64(m.max-m.min)
	}
	img := image.NewRGBA(image.Rect(0, 0, m.nx, len(m.peak)/m.nx))
	for p, v := range m.peak {
		g := uint8(float64(v-m.min) * scale)
		c := color.RGBA{g, g, g, 255}
		if m.active[p] {
			c = color.RGBA{255, 200, g / 2, 255}
		}
		img.SetRGBA(p%m.nx, p/m.nx, c)
	}
	return img
}

// Workbench frame arithmetic (section 4): "the workbench has two
// projection planes, each of them displays stereo images of 1024x768
// true color (24 Bit) pixels".
const (
	WorkbenchPlanes = 2
	WorkbenchEyes   = 2
	WorkbenchWidth  = 1024
	WorkbenchHeight = 768
	WorkbenchDepth  = 3 // bytes per pixel
)

// WorkbenchFrameBytes is the payload of one full workbench frame set.
const WorkbenchFrameBytes = WorkbenchPlanes * WorkbenchEyes * WorkbenchWidth * WorkbenchHeight * WorkbenchDepth

// WorkbenchFPS reports the achievable workbench frame rate when frames
// are streamed as classical IP over ATM on a carrier of the given
// payload rate (bit/s) with the given IP MTU: framing (LLC/SNAP + AAL5
// cell tax) and per-packet IP headers are charged.
func WorkbenchFPS(payloadBps float64, mtu int) float64 {
	if mtu <= 40 {
		return 0
	}
	ipPayload := mtu - 40 // TCP/IP headers per packet
	wire := atm.CLIPWireBytes(mtu)
	effective := payloadBps * float64(ipPayload) / float64(wire)
	return effective / (8 * float64(WorkbenchFrameBytes))
}
