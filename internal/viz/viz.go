// Package viz reimplements the visualization stages of the fMRI
// project: the 2-D overlay display of the FIRE GUI (figure 3), the
// merge of the functional data with the high-resolution anatomical
// head scan for 3-D display (figure 4) and a maximum-intensity-projection
// renderer standing in for AVS/AVOCADO — built from the head's
// projection and only the merge's support box, so no 256x256x128 volume
// or plane is built — and the Responsive Workbench
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

// MIP is figure 4's picture: a maximum-intensity projection of the
// anatomy along z with activated regions (upsampled correlation >=
// clip) highlighted, "light areas are regions of the brain that are
// activated". Per pixel it holds the anatomy's peak and whether any
// voxel of its column is active; min and max, the anatomy's range over
// all voxels, scale the gray levels.
type MIP struct {
	nx       int
	peak     []float32
	active   []bool
	min, max float32
}

// NewMIP starts a projection with no pixel active from an anatomy's
// per-pixel peaks along z (nx per row, x fastest) and its range over all
// voxels, which is what mri.HeadProjection gives for the head. The MIP
// keeps peak.
func NewMIP(nx int, peak []float32, min, max float32) *MIP {
	return &MIP{nx: nx, peak: peak, active: make([]bool, len(peak)), min: min, max: max}
}

// Activate marks the pixels whose column of the correlation map,
// upsampled (trilinear) onto the anatomy's nx x ny x nz grid, holds a
// voxel >= clip. The map is upsampled as done before display on the
// Onyx 2: "it is merged with a high resolution (256x256x128 voxels)
// image of the subject's head".
//
// An upsampled voxel whose eight taps all read +0 is +0: each product
// of +0 and a weight in [0, 1] is +0, and so is each sum of two. So only
// the box of target columns, rows and planes whose taps reach the map's
// support (the box around its voxels that are not +0) is sampled. Every
// voxel outside it is +0, which is active exactly when +0 >= clip.
func (m *MIP) Activate(corr *volume.Volume, nz int, clip float64) {
	nx, ny := m.nx, len(m.peak)/m.nx
	xs, ys, zs := axis(nx, corr.NX), axis(ny, corr.NY), axis(nz, corr.NZ)
	lo, hi := support(corr)
	x0, x1 := window(xs, corr.NX, lo[0], hi[0])
	y0, y1 := window(ys, corr.NY, lo[1], hi[1])
	z0, z1 := window(zs, corr.NZ, lo[2], hi[2])
	if nz > 0 && 0 >= clip {
		// A column outside the box is +0 from top to bottom, and so is
		// part of a box column when the box is less than nz planes deep.
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if z1-z0 < nz || y < y0 || y >= y1 || x < x0 || x >= x1 {
					m.active[y*nx+x] = true
				}
			}
		}
	}
	if x0 == x1 || y0 == y1 || z0 == z1 {
		return // the box is empty
	}
	w := x1 - x0
	plane, buf := corr.PlaneSampler(xs[x0:x1], ys[y0:y1], zs[z0:z1]), make([]float32, w*(y1-y0))
	for k := 0; k < z1-z0; k++ {
		plane(k, buf)
		for y := y0; y < y1; y++ {
			active := m.active[y*nx+x0 : y*nx+x1]
			for x, v := range buf[(y-y0)*w : (y-y0+1)*w] {
				if float64(v) >= clip {
					active[x] = true
				}
			}
		}
	}
}

// axis maps target voxels 0..n-1 onto source coordinates 0..src-1; a
// one-voxel target axis samples coordinate 0.
func axis(n, src int) []float64 {
	cs := make([]float64, n)
	if n > 1 {
		scale := float64(src-1) / float64(n-1)
		for i := range cs {
			cs[i] = float64(i) * scale
		}
	}
	return cs
}

// Image renders the projection.
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
