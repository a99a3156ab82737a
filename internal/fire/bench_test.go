package fire

import (
	"testing"

	"repro/internal/mri"
)

// BenchmarkMedianFilterParallel compares the serial and parallel
// median filter on a full-size 64x64x16 scan.
func BenchmarkMedianFilterParallel(b *testing.B) {
	ph := mri.NewPhantom(64, 64, 16, nil)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MedianFilter3D(ph.Anatomy, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ParallelMedianFilter3D(ph.Anatomy, 1, 0)
		}
	})
}

// BenchmarkCorrelatorAdd measures the per-scan realtime analysis cost
// at the paper's acquisition size.
func BenchmarkCorrelatorAdd(b *testing.B) {
	ph := mri.NewPhantom(64, 64, 16, nil)
	ref := make([]float64, 1<<20) // effectively unlimited scans
	for i := range ref {
		ref[i] = float64(i%16) - 8
	}
	c := NewCorrelator(ref, 64, 64, 16)
	b.SetBytes(int64(ph.Anatomy.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Add(ph.Anatomy); err != nil {
			b.Fatal(err)
		}
	}
}

var benchShift [3]float64

// BenchmarkEstimateShift: one motion estimate on the paper's 64x64x16
// functional image moved by a fraction of a voxel — the Gauss-Newton
// loop (a Shift plus a gradient pass per iteration) that fire-rt-session
// runs for every scan.
func BenchmarkEstimateShift(b *testing.B) {
	ref := mri.NewPhantom(64, 64, 16, nil).Anatomy
	cur := ref.Shift(0.4, -0.3, 0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := EstimateShift(ref, cur, MotionOptions{})
		if err != nil {
			b.Fatal(err)
		}
		benchShift = d
	}
}
