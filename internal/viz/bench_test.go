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

var (
	benchMerged *volume.Volume
	benchImage  *image.RGBA
)

// BenchmarkMergeFunctional: figure 4's merge, a 64x64x16 correlation
// map upsampled onto the 256x256x128 head (8.4 M output voxels, 33 MB).
func BenchmarkMergeFunctional(b *testing.B) {
	anatHi, corr := workbenchVolumes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMerged = MergeFunctional(anatHi, corr)
	}
}

// BenchmarkRenderMIP: the maximum-intensity projection of the merged
// 256x256x128 pair onto a 256x256 image.
func BenchmarkRenderMIP(b *testing.B) {
	anatHi, corr := workbenchVolumes()
	merged := MergeFunctional(anatHi, corr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := RenderMIP(anatHi, merged, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		benchImage = img
	}
}
