package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v", m.At(1, 0))
	}
	m.Set(1, 0, 7)
	if m.At(1, 0) != 7 {
		t.Errorf("Set failed")
	}
	tr := m.T()
	if tr.At(0, 1) != 7 {
		t.Errorf("T: got %v", tr.At(0, 1))
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone aliases")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("C(%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestIdentityIsNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMat(5, 5)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	p := a.Mul(Identity(5))
	if MaxAbsDiff(p.Data, a.Data) != 0 {
		t.Error("A*I != A")
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{3, 4}
	if Norm2(a) != 5 {
		t.Errorf("Norm2 = %v", Norm2(a))
	}
	y := []float64{1, 1}
	Axpy(2, a, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 {
		t.Errorf("Scale = %v", y)
	}
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("Dot")
	}
}

func TestEigSymKnown(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(vals[0], 3, 1e-10) || !almostEq(vals[1], 1, 1e-10) {
		t.Errorf("vals = %v", vals)
	}
	// Check A v = lambda v for each.
	for k := 0; k < 2; k++ {
		v := []float64{vecs.At(0, k), vecs.At(1, k)}
		av := a.MulVec(v)
		for i := range av {
			if !almostEq(av[i], vals[k]*v[i], 1e-10) {
				t.Errorf("eigenpair %d violated: Av=%v lambda*v=%v", k, av[i], vals[k]*v[i])
			}
		}
	}
}

// Property: for random symmetric matrices, EigSym returns orthonormal
// eigenvectors and satisfies A V = V diag(vals).
func TestEigSymProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		a := NewMat(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs, err := EigSym(a)
		if err != nil {
			t.Fatal(err)
		}
		// Descending order.
		for k := 1; k < n; k++ {
			if vals[k] > vals[k-1]+1e-12 {
				t.Fatalf("eigenvalues not descending: %v", vals)
			}
		}
		// Orthonormal columns.
		vtv := vecs.T().Mul(vecs)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEq(vtv.At(i, j), want, 1e-8) {
					t.Fatalf("V^T V (%d,%d) = %v", i, j, vtv.At(i, j))
				}
			}
		}
		// A V = V D.
		av := a.Mul(vecs)
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				if !almostEq(av.At(i, k), vals[k]*vecs.At(i, k), 1e-8) {
					t.Fatalf("AV != VD at (%d,%d)", i, k)
				}
			}
		}
	}
}

func TestEigSymRejectsNonSquareAndAsymmetric(t *testing.T) {
	if _, _, err := EigSym(NewMat(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
	a := FromRows([][]float64{{1, 2}, {0, 1}})
	if _, _, err := EigSym(a); err == nil {
		t.Error("asymmetric accepted")
	}
}

// poisson1D is the 1-D Poisson operator, tridiagonal [-1 2 -1], SPD.
func poisson1D(n int) func(dst, src []float64) {
	return func(dst, src []float64) {
		for i := 0; i < n; i++ {
			v := 2 * src[i]
			if i > 0 {
				v -= src[i-1]
			}
			if i < n-1 {
				v -= src[i+1]
			}
			dst[i] = v
		}
	}
}

// poisson3D is a shifted 7-point Poisson operator on an nx x ny x nz
// grid, the shape of TRACE's system.
func poisson3D(nx, ny, nz int) func(dst, src []float64) {
	return func(dst, src []float64) {
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
}

// fused turns an operator that only writes dst into an Operator, which
// also returns src·dst.
func fused(op func(dst, src []float64)) Operator {
	return func(dst, src []float64) float64 {
		op(dst, src)
		return Dot(src, dst)
	}
}

func TestCGSolvesPoisson(t *testing.T) {
	n := 50
	op := poisson1D(n)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = math.Sin(float64(i) / 5)
	}
	b := make([]float64, n)
	op(b, xTrue)
	x := make([]float64, n)
	res, err := CG(fused(op), x, b, 1e-12, 0, new(CGWork))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	if MaxAbsDiff(x, xTrue) > 1e-8 {
		t.Errorf("CG error %g", MaxAbsDiff(x, xTrue))
	}
}

// referenceCG is CG as it was before its updates and dot products were
// fused, kept verbatim: a Dot after the operator, two Axpy passes and a
// Dot per iteration, on an operator that only writes dst.
func referenceCG(a func(dst, src []float64), x, b []float64, tol float64, maxIter int) (CGResult, error) {
	n := len(b)
	if len(x) != n {
		return CGResult{}, fmt.Errorf("linalg: CG dim mismatch x=%d b=%d", len(x), n)
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	bnorm := Norm2(b)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return CGResult{Converged: true}, nil
	}
	r := make([]float64, n)
	ax := make([]float64, n)
	a(ax, x)
	for i := range r {
		r[i] = b[i] - ax[i]
	}
	p := make([]float64, n)
	copy(p, r)
	ap := make([]float64, n)
	rs := Dot(r, r)
	var it int
	for it = 0; it < maxIter; it++ {
		if math.Sqrt(rs)/bnorm < tol {
			return CGResult{Iterations: it, Residual: math.Sqrt(rs) / bnorm, Converged: true}, nil
		}
		a(ap, p)
		pap := Dot(p, ap)
		if pap <= 0 {
			return CGResult{Iterations: it, Residual: math.Sqrt(rs) / bnorm},
				fmt.Errorf("linalg: CG operator not positive definite (pAp=%g)", pap)
		}
		alpha := rs / pap
		Axpy(alpha, p, x)
		Axpy(-alpha, ap, r)
		rsNew := Dot(r, r)
		beta := rsNew / rs
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rs = rsNew
	}
	return CGResult{Iterations: it, Residual: math.Sqrt(rs) / bnorm, Converged: math.Sqrt(rs)/bnorm < tol}, nil
}

// The fused CG must walk the reference's iterates exactly: the same x
// bits, iteration count and residual, converged or cut off by maxIter,
// with fresh scratch and with scratch reused from a larger solve.
func TestCGMatchesReferenceBitForBit(t *testing.T) {
	var w CGWork
	for _, c := range []struct {
		name    string
		n       int
		op      func(dst, src []float64)
		tol     float64
		maxIter int
	}{
		{"poisson3D", 18 * 8 * 6, poisson3D(18, 8, 6), 1e-8, 0},
		{"poisson3D-cut", 18 * 8 * 6, poisson3D(18, 8, 6), 1e-8, 7},
		{"poisson1D", 50, poisson1D(50), 1e-12, 0},
	} {
		rng := rand.New(rand.NewSource(int64(c.n)))
		b := make([]float64, c.n)
		x0 := make([]float64, c.n)
		for i := range b {
			b[i] = rng.NormFloat64()
			x0[i] = rng.NormFloat64() / 10
		}
		want := append([]float64(nil), x0...)
		wantRes, wantErr := referenceCG(c.op, want, b, c.tol, c.maxIter)
		for _, work := range []*CGWork{new(CGWork), &w} {
			got := append([]float64(nil), x0...)
			res, err := CG(fused(c.op), got, b, c.tol, c.maxIter, work)
			if (err != nil) != (wantErr != nil) || res.Iterations != wantRes.Iterations ||
				math.Float64bits(res.Residual) != math.Float64bits(wantRes.Residual) || res.Converged != wantRes.Converged {
				t.Fatalf("%s: CG = %+v, %v; reference %+v, %v", c.name, res, err, wantRes, wantErr)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: x[%d] = %x, reference %x", c.name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	op := fused(func(dst, src []float64) { copy(dst, src) })
	x := []float64{5, 5}
	res, err := CG(op, x, []float64{0, 0}, 1e-10, 10, new(CGWork))
	if err != nil || !res.Converged {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if x[0] != 0 || x[1] != 0 {
		t.Errorf("x = %v, want zeros", x)
	}
}

func TestCGRejectsIndefinite(t *testing.T) {
	op := fused(func(dst, src []float64) {
		dst[0] = -src[0]
		dst[1] = -src[1]
	})
	x := make([]float64, 2)
	if _, err := CG(op, x, []float64{1, 1}, 1e-10, 10, new(CGWork)); err == nil {
		t.Error("indefinite operator accepted")
	}
}

// A NaN or an Inf in the right-hand side is an error within two
// iterations, not a run to the iteration cap.
func TestCGStopsOnNonFiniteStep(t *testing.T) {
	const n = 50
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := make([]float64, n)
		for i := range b {
			b[i] = math.Sin(float64(i))
		}
		b[n/2] = bad
		res, err := CG(fused(poisson1D(n)), make([]float64, n), b, 1e-12, 1000, new(CGWork))
		if err == nil || res.Iterations > 2 || res.Converged {
			t.Errorf("b[%d] = %v: CG = %+v, %v; want an error within two iterations", n/2, bad, res, err)
		}
	}
}

func TestCGDimMismatch(t *testing.T) {
	op := fused(func(dst, src []float64) { copy(dst, src) })
	if _, err := CG(op, make([]float64, 3), make([]float64, 2), 0, 0, new(CGWork)); err == nil {
		t.Error("dim mismatch accepted")
	}
}

// FromRows builds a matrix from row slices (all the same length).
func FromRows(rows [][]float64) *Mat {
	if len(rows) == 0 {
		return NewMat(0, 0)
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// MaxAbsDiff returns the largest absolute element-wise difference
// between two equal-length vectors; a convenience for tests and
// convergence checks.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: MaxAbsDiff length mismatch")
	}
	var m float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}
