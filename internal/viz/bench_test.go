package viz

import (
	"image"
	"math"
	"testing"

	"repro/internal/mri"
	"repro/internal/volume"
)

// workbenchVolumes builds figure 4's shapes: a 64x64x16 correlation map
// and a 256x256x128 anatomy, both with non-trivial content.
func workbenchVolumes() (anatHi, corr *volume.Volume) {
	anatHi, corr = volume.New(256, 256, 128), volume.New(64, 64, 16)
	for i := range anatHi.Data {
		anatHi.Data[i] = float32(i % 1021)
	}
	for i := range corr.Data {
		corr.Data[i] = float32(i%200)/100 - 1
	}
	return anatHi, corr
}

// figure4Map is the correlation map figure 4 merges: a 64x64x16 map of
// +0 but for a motor-cortex-like activation region.
func figure4Map() *volume.Volume {
	corr := volume.New(64, 64, 16)
	const cx, cy, cz, radius = 24, 40, 10, 5.0
	for z := 0; z < 16; z++ {
		for y := 0; y < 64; y++ {
			for x := 0; x < 64; x++ {
				dx, dy, dz := float64(x-cx), float64(y-cy), float64(z-cz)
				d2 := dx*dx + dy*dy + dz*dz
				if d2 <= radius*radius {
					corr.Set(x, y, z, float32(0.9*math.Exp(-d2/(radius*radius))))
				}
			}
		}
	}
	return corr
}

var benchImage *image.RGBA

// BenchmarkWorkbenchRender: figure 4's render without the PNG encoder.
// The 256x256x128 head's projection comes in closed form from
// mri.HeadProjection, the 64x64x16 map activates pixels from the merge's
// support box alone, and the MIP is drawn onto a 256x256 image. The
// allocations are the head's tables and peaks, the box sampler and one
// box plane, the activity and the image: no volume and no 256x256 plane
// of the map.
func BenchmarkWorkbenchRender(b *testing.B) {
	corr := figure4Map()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peak, lo, hi := mri.HeadProjection(256, 256, 128)
		mip := NewMIP(256, peak, lo, hi)
		mip.Activate(corr, 128, 0.5)
		benchImage = mip.Image()
	}
}
