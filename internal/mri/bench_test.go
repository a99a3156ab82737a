package mri

import "testing"

var (
	benchPhantom *Phantom
	benchPlane   []float32
)

// BenchmarkNewPhantomHiRes: a whole 256x256x128 head (8.4 M voxels,
// 33 MB of anatomy plus 8 MB of mask).
func BenchmarkNewPhantomHiRes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPhantom = NewPhantom(256, 256, 128, nil)
	}
}

// BenchmarkHeadPlanesHiRes: the same head as figure 4 draws it, all 128
// planes into one reused 256x256 plane and no mask.
func BenchmarkHeadPlanesHiRes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		head, plane := HeadPlanes(256, 256, 128), make([]float32, 256*256)
		for z := 0; z < 128; z++ {
			head(z, plane, nil)
		}
		benchPlane = plane
	}
}
