package mri

import (
	"math/rand"
	"testing"

	"repro/internal/volume"
)

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

// BenchmarkHeadPlanesHiRes: figure 4's 256x256x128 head drawn, all 128
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

// BenchmarkHeadProjection: the projection figure 4 renders from the
// same head, per-pixel peaks and range in closed form, no plane drawn.
func BenchmarkHeadProjection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPlane, _, _ = HeadProjection(256, 256, 128)
	}
}

var benchScan *volume.Volume

// BenchmarkScannerNext: figure 3's measurement, 48 noisy 64x64x16 scans
// of one activation site, synthesized by a new scanner per op — what
// figure3-overlay runs twice.
func BenchmarkScannerNext(b *testing.B) {
	act := Activation{CX: 32, CY: 30, CZ: 8, Radius: 5, Amplitude: 0.05, HRF: DefaultHRF}
	ph := NewPhantom(64, 64, 16, []Activation{act})
	cfg := ScanConfig{NX: 64, NY: 64, NZ: 16, TR: 2, NScans: 48, NoiseStd: 3, Seed: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := NewScanner(ph, cfg)
		for v := sc.Next(); v != nil; v = sc.Next() {
			benchScan = v
		}
	}
}

var benchNoise float64

// BenchmarkNoise: ns per Gaussian draw of one stream three ways —
// math/rand's NormFloat64, the scanner's chunked fill, and the skip
// NextROI steps past the voxels it does not synthesize with.
func BenchmarkNoise(b *testing.B) {
	const draws = 1 << 16 // one 64x64x16 scan
	b.Run("mathrand", func(b *testing.B) {
		rng := rand.New(rand.NewSource(43))
		for i := 0; i < b.N; i++ {
			for k := 0; k < draws; k++ {
				benchNoise = rng.NormFloat64()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*draws), "ns/draw")
	})
	b.Run("fill", func(b *testing.B) {
		var g noiseSource
		g.seed(43)
		buf := make([]float64, noiseChunk)
		for i := 0; i < b.N; i++ {
			for k := 0; k < draws; k += noiseChunk {
				g.fill(buf)
			}
		}
		benchNoise = buf[0]
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*draws), "ns/draw")
	})
	b.Run("skip", func(b *testing.B) {
		var g noiseSource
		g.seed(43)
		for i := 0; i < b.N; i++ {
			g.skip(draws)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*draws), "ns/draw")
	})
}
