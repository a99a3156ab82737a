package volume

import "testing"

// BenchmarkShift: a fractional rigid shift of one 64x64x16 functional
// image — what motion correction does once per Gauss-Newton iteration
// and the scanner once per moved scan — into one reused volume through
// one reused Sampler, as both of them shift.
func BenchmarkShift(b *testing.B) {
	v, out := New(64, 64, 16), New(64, 64, 16)
	for i := range v.Data {
		v.Data[i] = float32(i % 251)
	}
	var s Sampler
	s.Shift(out, v, 0.4, -0.7, 0.3) // sizes the sampler's buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Shift(out, v, 0.4, -0.7, 0.3)
	}
}
