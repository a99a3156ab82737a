// Package viz reimplements the visualization stages of the fMRI
// project: the 2-D overlay display of the FIRE GUI (figure 3), the
// merge of the functional data with the high-resolution anatomical
// head scan for 3-D display (figure 4), a maximum-intensity-projection
// renderer standing in for AVS/AVOCADO, and the Responsive Workbench
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
	return corr.Resample(axis(anatHi.NX, corr.NX), axis(anatHi.NY, corr.NY), axis(anatHi.NZ, corr.NZ))
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
