package linalg

import (
	"fmt"
	"math"
)

// Operator applies a symmetric positive-definite linear operator,
// dst = A src, and returns src·dst: the sum of src[i]*dst[i] for i
// from 0 up, added in index order from +0, exactly as Dot(src, dst)
// adds it. CG takes that dot as its pAp, so an operator fuses it into
// the pass that writes dst. dst and src never alias.
type Operator func(dst, src []float64) float64

// CGResult reports conjugate-gradient convergence.
type CGResult struct {
	Iterations int
	Residual   float64 // final ||r|| / ||b||
	Converged  bool
}

// CGWork is CG's scratch: the residual, the search direction and A
// times it. A caller that solves repeatedly keeps one, so a solve of a
// size it has seen allocates nothing; the zero value is ready to use.
type CGWork struct {
	r, p, ap []float64
}

// vectors returns the three scratch vectors resized to n.
func (w *CGWork) vectors(n int) (r, p, ap []float64) {
	if cap(w.r) < n {
		w.r, w.p, w.ap = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	return w.r[:n], w.p[:n], w.ap[:n]
}

// CG solves A x = b for SPD A using the conjugate-gradient method,
// starting from x (which it updates in place). It stops when the
// relative residual falls below tol or maxIter iterations elapse. w
// holds the scratch vectors between calls.
//
// An iteration makes three passes over memory: the direction update,
// the operator (which returns pAp), and one pass that moves x and r and
// sums r·r. Each sum still adds its terms in index order, so the
// iterates are bit for bit those of the textbook Dot/Axpy sequence.
//
// A step that is not finite — a NaN or an Inf in b or x, or from the
// operator — is an error at the iteration it appears in: pAp that is
// not positive (NaN included), or a new r·r that is not finite.
func CG(a Operator, x, b []float64, tol float64, maxIter int, w *CGWork) (CGResult, error) {
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
	r, p, ap := w.vectors(n)
	a(ap, x)
	var rs float64
	for i := range r {
		r[i] = b[i] - ap[i]
		p[i] = r[i]
		rs += r[i] * r[i]
	}
	var it int
	for it = 0; it < maxIter; it++ {
		if math.Sqrt(rs)/bnorm < tol {
			return CGResult{Iterations: it, Residual: math.Sqrt(rs) / bnorm, Converged: true}, nil
		}
		pap := a(ap, p)
		if !(pap > 0) {
			what := "operator not positive definite"
			if math.IsNaN(pap) {
				what = "step not finite"
			}
			return CGResult{Iterations: it, Residual: math.Sqrt(rs) / bnorm},
				fmt.Errorf("linalg: CG %s (pAp=%g)", what, pap)
		}
		alpha := rs / pap
		nalpha := -alpha
		var rsNew float64
		for i := range x {
			x[i] += alpha * p[i]
			r[i] += nalpha * ap[i]
			rsNew += r[i] * r[i]
		}
		if math.IsNaN(rsNew) || math.IsInf(rsNew, 0) {
			return CGResult{Iterations: it + 1, Residual: math.Sqrt(rsNew) / bnorm},
				fmt.Errorf("linalg: CG step not finite (r·r=%g)", rsNew)
		}
		beta := rsNew / rs
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rs = rsNew
	}
	return CGResult{Iterations: it, Residual: math.Sqrt(rs) / bnorm, Converged: math.Sqrt(rs)/bnorm < tol}, nil
}
