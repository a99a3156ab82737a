package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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

func TestQRSolvesExactSystem(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}, {0, 1}})
	xTrue := []float64{1.5, -2}
	b := a.MulVec(xTrue)
	x, err := LstSq(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(x, xTrue) > 1e-12 {
		t.Errorf("x = %v, want %v", x, xTrue)
	}
}

func TestQRLeastSquaresResidualOrthogonal(t *testing.T) {
	// Least-squares residual must be orthogonal to the column space.
	rng := rand.New(rand.NewSource(7))
	a := NewMat(20, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b := make([]float64, 20)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := LstSq(a, b)
	if err != nil {
		t.Fatal(err)
	}
	pred := a.MulVec(x)
	res := make([]float64, 20)
	for i := range res {
		res[i] = b[i] - pred[i]
	}
	at := a.T()
	proj := at.MulVec(res)
	for j, v := range proj {
		if math.Abs(v) > 1e-10 {
			t.Errorf("residual not orthogonal to column %d: %g", j, v)
		}
	}
}

func TestQRRankDeficient(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}}) // col2 = 2*col1
	if _, err := LstSq(a, []float64{1, 2, 3}); err == nil {
		t.Error("rank-deficient system did not error")
	}
}

func TestQRUnderdetermined(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}})
	if _, err := NewQR(a); err == nil {
		t.Error("underdetermined QR did not error")
	}
}

func TestFitLinear(t *testing.T) {
	// y = 2 + 3t with noise-free data.
	n := 10
	x := NewMat(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		tv := float64(i)
		x.Set(i, 0, 1)
		x.Set(i, 1, tv)
		y[i] = 2 + 3*tv
	}
	beta, rss, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(beta[0], 2, 1e-10) || !almostEq(beta[1], 3, 1e-10) {
		t.Errorf("beta = %v", beta)
	}
	if rss > 1e-18 {
		t.Errorf("rss = %g", rss)
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

func TestCGSolvesPoisson(t *testing.T) {
	// 1-D Poisson: tridiagonal [-1 2 -1], SPD.
	n := 50
	op := func(dst, src []float64) {
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
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = math.Sin(float64(i) / 5)
	}
	b := make([]float64, n)
	op(b, xTrue)
	x := make([]float64, n)
	res, err := CG(op, x, b, 1e-12, 0)
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

func TestCGZeroRHS(t *testing.T) {
	op := func(dst, src []float64) { copy(dst, src) }
	x := []float64{5, 5}
	res, err := CG(op, x, []float64{0, 0}, 1e-10, 10)
	if err != nil || !res.Converged {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if x[0] != 0 || x[1] != 0 {
		t.Errorf("x = %v, want zeros", x)
	}
}

func TestCGRejectsIndefinite(t *testing.T) {
	op := func(dst, src []float64) {
		dst[0] = -src[0]
		dst[1] = -src[1]
	}
	x := make([]float64, 2)
	if _, err := CG(op, x, []float64{1, 1}, 1e-10, 10); err == nil {
		t.Error("indefinite operator accepted")
	}
}

func TestCGDimMismatch(t *testing.T) {
	op := func(dst, src []float64) { copy(dst, src) }
	if _, err := CG(op, make([]float64, 3), make([]float64, 2), 0, 0); err == nil {
		t.Error("dim mismatch accepted")
	}
}

// Property: QR factorization solves random consistent systems.
func TestQRProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := n + rng.Intn(10)
		a := NewMat(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue)
		x, err := LstSq(a, b)
		if err != nil {
			return true // rank-deficient random draw: fine to reject
		}
		return MaxAbsDiff(x, xTrue) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
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
