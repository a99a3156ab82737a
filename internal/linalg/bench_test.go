package linalg

import (
	"math/rand"
	"testing"
)

func randomMat(rows, cols int, seed int64) *Mat {
	rng := rand.New(rand.NewSource(seed))
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// BenchmarkEigSym measures the MUSIC-scale eigendecomposition
// (148 sensors).
func BenchmarkEigSym(b *testing.B) {
	g := randomMat(148, 148, 2)
	cov := g.Mul(g.T()) // SPD
	// Symmetrize roundoff.
	for i := 0; i < cov.Rows; i++ {
		for j := i + 1; j < cov.Cols; j++ {
			v := (cov.At(i, j) + cov.At(j, i)) / 2
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EigSym(cov); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCGPoisson measures the TRACE-style solve (3-D Poisson,
// 18x8x6 unknowns).
func BenchmarkCGPoisson(b *testing.B) {
	nx, ny, nz := 18, 8, 6
	n := nx * ny * nz
	op := fused(poisson3D(nx, ny, nz))
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i % 13)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, n)
		if _, err := CG(op, x, rhs, 1e-8, 0, new(CGWork)); err != nil {
			b.Fatal(err)
		}
	}
}
