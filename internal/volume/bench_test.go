package volume

import "testing"

var benchVolume *Volume

// BenchmarkShift: a fractional rigid shift of one 64x64x16 functional
// image — what motion correction does once per Gauss-Newton iteration
// and the scanner once per moved scan.
func BenchmarkShift(b *testing.B) {
	v := New(64, 64, 16)
	for i := range v.Data {
		v.Data[i] = float32(i % 251)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchVolume = v.Shift(0.4, -0.7, 0.3)
	}
}
