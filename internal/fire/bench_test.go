package fire

import (
	"fmt"
	"testing"

	"repro/internal/mri"
	"repro/internal/volume"
)

// benchSeries builds a small measurement once for the RVO benches.
func benchSeries(b *testing.B) ([]*volume.Volume, []float64, float64) {
	b.Helper()
	act := mri.Activation{CX: 8, CY: 8, CZ: 4, Radius: 3, Amplitude: 0.06, HRF: mri.DefaultHRF}
	ph := mri.NewPhantom(16, 16, 8, []mri.Activation{act})
	stim := mri.BlockStimulus(32, 8)
	sc := mri.NewScanner(ph, mri.ScanConfig{NX: 16, NY: 16, NZ: 8, TR: 2, NScans: 32,
		Stimulus: stim, NoiseStd: 1, Seed: 4})
	return scanSeries(sc), stim, 2.0
}

// BenchmarkParallelRVOScaling shows the real goroutine speedup of the
// voxel raster — the host-machine analogue of Table 1's scaling.
func BenchmarkParallelRVOScaling(b *testing.B) {
	series, stim, tr := benchSeries(b)
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ParallelRVO(series, stim, tr, DefaultRVOGrid(), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

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
