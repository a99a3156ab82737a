package fire

import (
	"testing"

	"repro/internal/mri"
	"repro/internal/volume"
)

// BenchmarkCorrelatorAdd measures the per-scan realtime analysis cost
// at the paper's acquisition size.
func BenchmarkCorrelatorAdd(b *testing.B) {
	ph := mri.NewPhantom(64, 64, 16, nil)
	ref := make([]float64, 1<<20) // effectively unlimited scans
	for i := range ref {
		ref[i] = float64(i%16) - 8
	}
	c := NewCorrelator(ref, 64, 64, 16)
	b.SetBytes(int64(4 * ph.Anatomy.Voxels()))
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
// loop (a Shift fused with a gradient pass per iteration) that
// fire-rt-session runs for every scan. cold starts the fit at zero, as
// the first scan of a session does; warm starts it at the true shift,
// as a scan whose subject has not moved since the last does.
func BenchmarkEstimateShift(b *testing.B) {
	ref := mri.NewPhantom(64, 64, 16, nil).Anatomy
	cur := volume.New(64, 64, 16)
	truth := [3]float64{0.4, -0.3, 0.2}
	new(volume.Sampler).Shift(cur, ref, truth[0], truth[1], truth[2])
	for _, c := range []struct {
		name  string
		start [3]float64
	}{{"cold", [3]float64{}}, {"warm", truth}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := MotionOptions{Start: c.start}
				if err := checkMotion(ref, cur, &opts); err != nil {
					b.Fatal(err)
				}
				fit, err := estimateShift(new(volume.Sampler), volume.New(ref.NX, ref.NY, ref.NZ), ref, cur, opts)
				if err != nil {
					b.Fatal(err)
				}
				benchShift = fit.Shift
			}
		})
	}
}
