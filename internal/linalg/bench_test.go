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
// 20x8x6 unknowns).
func BenchmarkCGPoisson(b *testing.B) {
	nx, ny, nz := 18, 8, 6
	n := nx * ny * nz
	op := func(dst, src []float64) {
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					i := x + nx*(y+ny*z)
					v := 6 * src[i]
					if x > 0 {
						v -= src[i-1]
					}
					if x < nx-1 {
						v -= src[i+1]
					}
					if y > 0 {
						v -= src[i-nx]
					}
					if y < ny-1 {
						v -= src[i+nx]
					}
					if z > 0 {
						v -= src[i-nx*ny]
					}
					if z < nz-1 {
						v -= src[i+nx*ny]
					}
					dst[i] = v + 1e-3*src[i]
				}
			}
		}
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i % 13)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, n)
		if _, err := CG(op, x, rhs, 1e-8, 0); err != nil {
			b.Fatal(err)
		}
	}
}
