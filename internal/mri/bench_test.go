package mri

import "testing"

var benchPhantom *Phantom

// BenchmarkNewPhantomHiRes: the 256x256x128 anatomical head of figure 4
// (8.4 M voxels, 33 MB of anatomy plus 8 MB of mask).
func BenchmarkNewPhantomHiRes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPhantom = NewPhantom(256, 256, 128, nil)
	}
}
