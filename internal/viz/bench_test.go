package viz

import (
	"image"
	"testing"

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

var benchImage *image.RGBA

// BenchmarkWorkbenchRender: figure 4's merge and MIP, a 64x64x16
// correlation map upsampled onto the 256x256x128 head one plane at a
// time and projected onto a 256x256 image. The anatomy is given; the
// allocations are the sampler's taps, one map plane, the projection's
// per-pixel state and the image — no volume.
func BenchmarkWorkbenchRender(b *testing.B) {
	anatHi, corr := workbenchVolumes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchImage = renderByPlanes(anatHi, corr, 0.5)
	}
}
