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
	return corr.PlaneSampler(axis(nx, corr.NX), axis(ny, corr.NY), axis(nz, corr.NZ))
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
