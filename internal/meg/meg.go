// Package meg reimplements pmusic, the parallel
// magnetoencephalography analysis of the Institute of Medicine: it
// estimates the position and strength of current dipoles in a human
// brain from MEG measurements using the MUSIC (MUltiple SIgnal
// Classification) algorithm.
//
// The forward model is the standard spherical-conductor result: the
// radial magnetic field of a current dipole q at position p, measured
// at sensor position r on a radial magnetometer, is
//
//	B_r(r) = (mu0 / 4 pi) * q . (p x r) / (|r| |r - p|^3)
//
// which is linear in q and blind to radial dipoles — a property the
// tests exploit. MUSIC builds the sensor covariance of the measurement,
// extracts the signal subspace by eigendecomposition, and scans a grid
// of candidate positions for locations whose gain space lies inside the
// signal subspace.
//
// In the testbed the program was distributed over a massively parallel
// and a vector supercomputer to achieve superlinear speedup; the scan
// (embarrassingly parallel) ran on the MPP while the eigendecomposition
// (dense, vectorizable) ran on the vector machine, with low-volume but
// latency-sensitive communication between them. DistributedModel
// reproduces that arithmetic.
package meg

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
)

// Vec3 is a point or vector in head coordinates (meters).
type Vec3 struct{ X, Y, Z float64 }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{v.Y*w.Z - v.Z*w.Y, v.Z*w.X - v.X*w.Z, v.X*w.Y - v.Y*w.X}
}

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// mu0over4pi is the magnetic constant / 4 pi.
const mu0over4pi = 1e-7

// SensorArray is a set of radial magnetometers on a spherical cap above
// the head.
type SensorArray struct {
	Positions []Vec3
}

// NewHelmetArray places n sensors quasi-uniformly on the upper
// hemisphere of radius rSensor (meters) using a Fibonacci spiral.
func NewHelmetArray(n int, rSensor float64) *SensorArray {
	pos := make([]Vec3, n)
	golden := math.Pi * (3 - math.Sqrt(5))
	for i := 0; i < n; i++ {
		// z in (0.15, 1): upper cap only.
		z := 0.15 + (1-0.15)*(float64(i)+0.5)/float64(n)
		r := math.Sqrt(1 - z*z)
		th := golden * float64(i)
		pos[i] = Vec3{rSensor * r * math.Cos(th), rSensor * r * math.Sin(th), rSensor * z}
	}
	return &SensorArray{Positions: pos}
}

// GainVector returns g such that the sensor reading is g . q for a
// dipole moment q at position p: g_s = mu0/4pi * (p x r_s) / (|r_s| |r_s - p|^3)
// stacked per sensor as a 3-column matrix row.
func (a *SensorArray) GainVector(p Vec3) *linalg.Mat {
	g := linalg.NewMat(len(a.Positions), 3)
	for s, r := range a.Positions {
		d := r.Sub(p)
		den := r.Norm() * math.Pow(d.Norm(), 3)
		if den < 1e-18 {
			continue // dipole at sensor: leave zero row
		}
		v := p.Cross(r).Scale(mu0over4pi / den)
		g.Set(s, 0, v.X)
		g.Set(s, 1, v.Y)
		g.Set(s, 2, v.Z)
	}
	return g
}

// Forward computes the sensor reading for a dipole (p, q).
func (a *SensorArray) Forward(p, q Vec3) []float64 {
	g := a.GainVector(p)
	return g.MulVec([]float64{q.X, q.Y, q.Z})
}

// Dipole is a source with a position, a fixed orientation/strength and
// a time course.
type Dipole struct {
	Pos    Vec3
	Moment Vec3      // orientation x strength (A*m)
	Course []float64 // activation over time samples
}

// Synthesize generates sensor data (sensors x time) for the dipoles
// plus white noise of the given std dev.
func Synthesize(a *SensorArray, dipoles []Dipole, nt int, noise float64, seed int64) (*linalg.Mat, error) {
	m := len(a.Positions)
	x := linalg.NewMat(m, nt)
	for _, d := range dipoles {
		if len(d.Course) < nt {
			return nil, fmt.Errorf("meg: dipole time course %d shorter than %d", len(d.Course), nt)
		}
		b := a.Forward(d.Pos, d.Moment)
		for t := 0; t < nt; t++ {
			for s := 0; s < m; s++ {
				x.Set(s, t, x.At(s, t)+b[s]*d.Course[t])
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	if noise > 0 {
		for i := range x.Data {
			x.Data[i] += rng.NormFloat64() * noise
		}
	}
	return x, nil
}

// Covariance returns X X^T / nt.
func Covariance(x *linalg.Mat) *linalg.Mat {
	m, nt := x.Rows, x.Cols
	c := linalg.NewMat(m, m)
	for i := 0; i < m; i++ {
		ri := x.Data[i*nt : (i+1)*nt]
		for j := i; j < m; j++ {
			rj := x.Data[j*nt : (j+1)*nt]
			var s float64
			for t := 0; t < nt; t++ {
				s += ri[t] * rj[t]
			}
			s /= float64(nt)
			c.Set(i, j, s)
			c.Set(j, i, s)
		}
	}
	return c
}

// SignalSubspace extracts the dominant nSignals eigenvectors of the
// covariance (columns of the returned matrix).
func SignalSubspace(cov *linalg.Mat, nSignals int) (*linalg.Mat, []float64, error) {
	vals, vecs, err := linalg.EigSym(cov)
	if err != nil {
		return nil, nil, err
	}
	if nSignals > len(vals) {
		return nil, nil, fmt.Errorf("meg: %d signals > %d sensors", nSignals, len(vals))
	}
	us := linalg.NewMat(cov.Rows, nSignals)
	for j := 0; j < nSignals; j++ {
		for i := 0; i < cov.Rows; i++ {
			us.Set(i, j, vecs.At(i, j))
		}
	}
	return us, vals, nil
}

// MusicValue computes the subspace correlation of a candidate position:
// the largest principal angle cosine^2 between the gain space at p and
// the signal subspace. Values near 1 indicate a source.
func MusicValue(a *SensorArray, us *linalg.Mat, p Vec3) float64 {
	g := a.GainVector(p)
	// Orthonormalize the gain columns by modified Gram-Schmidt,
	// dropping near-null directions (the radial direction is null in
	// a spherical conductor).
	cols := orthonormalCols(g)
	if cols.Cols == 0 {
		return 0
	}
	// M = cols^T Us Us^T cols; its largest eigenvalue is the squared
	// max subspace correlation.
	ut := us.T().Mul(cols) // nSignals x k
	m := ut.T().Mul(ut)    // k x k symmetric PSD
	vals, _, err := linalg.EigSym(m)
	if err != nil || len(vals) == 0 {
		return 0
	}
	v := vals[0]
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v
}

// orthonormalCols returns an orthonormal basis for the column space of
// g (columns with residual norm below tol are dropped).
func orthonormalCols(g *linalg.Mat) *linalg.Mat {
	m, n := g.Rows, g.Cols
	// Copy columns.
	cols := make([][]float64, 0, n)
	var scale float64
	for j := 0; j < n; j++ {
		c := make([]float64, m)
		for i := 0; i < m; i++ {
			c[i] = g.At(i, j)
		}
		if nv := linalg.Norm2(c); nv > scale {
			scale = nv
		}
		cols = append(cols, c)
	}
	tol := 1e-8 * scale
	var basis [][]float64
	for _, c := range cols {
		for _, b := range basis {
			linalg.Axpy(-linalg.Dot(b, c), b, c)
		}
		if nv := linalg.Norm2(c); nv > tol {
			linalg.Scale(1/nv, c)
			basis = append(basis, c)
		}
	}
	out := linalg.NewMat(m, len(basis))
	for j, b := range basis {
		for i := 0; i < m; i++ {
			out.Set(i, j, b[i])
		}
	}
	return out
}

// ScanResult is the MUSIC metric evaluated over a grid.
type ScanResult struct {
	Points []Vec3
	Values []float64
}

// Best returns the grid point with the highest MUSIC value.
func (r *ScanResult) Best() (Vec3, float64) {
	bi, bv := 0, -1.0
	for i, v := range r.Values {
		if v > bv {
			bi, bv = i, v
		}
	}
	return r.Points[bi], bv
}

// BrainGrid builds a cubic grid of candidate positions inside a sphere
// of radius rBrain, spacing h, upper hemisphere only (z > 0.01).
func BrainGrid(rBrain, h float64) []Vec3 {
	var out []Vec3
	for z := h; z < rBrain; z += h {
		for y := -rBrain; y <= rBrain; y += h {
			for x := -rBrain; x <= rBrain; x += h {
				p := Vec3{x, y, z}
				if p.Norm() < rBrain*0.95 {
					out = append(out, p)
				}
			}
		}
	}
	return out
}
