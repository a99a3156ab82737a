// Package groundwater reimplements the coupled application of the
// Institute for Petroleum and Organic Geochemistry: TRACE, a saturated
// groundwater flow simulation, coupled to PARTRACE, a particle tracker
// computing the transport of solutants in the computed water flow. In
// the testbed TRACE ran on the IBM SP2 and PARTRACE on the Cray T3E,
// with the 3-D flow field crossing the WAN every timestep at up to
// 30 MByte/s.
//
// TRACE here is a finite-volume Darcy solver: steady saturated flow
// del . (K grad h) = 0 on a regular grid with Dirichlet head boundaries
// at the inflow (x=0) and outflow (x=NX-1) faces and no-flow elsewhere,
// solved with conjugate gradients on the SPD system; Darcy fluxes are
// converted to pore velocities with the porosity.
//
// The 7-point operator is assembled, not matrix-free: the per-face
// transmissibilities and the diagonal depend only on the grid, K and
// Dx, so they are computed once per run in RunCoupled, whose steps
// change nothing but the inflow head and so only rebuild the
// right-hand side. Every CG iteration then is a
// stride-indexed sweep over those arrays. Initial guess and tolerance
// are the same for every solve (no warm start), so a coupled step is
// bit for bit the fresh solve of its boundary condition.
package groundwater

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
)

// FlowConfig describes one TRACE solve.
type FlowConfig struct {
	NX, NY, NZ int
	// Dx is the cell size in meters (cubic cells).
	Dx float64
	// K is the hydraulic conductivity per cell (m/s), length NX*NY*NZ.
	K []float64
	// HeadLeft and HeadRight are the Dirichlet heads (m) at the x=0
	// and x=NX-1 faces.
	HeadLeft, HeadRight float64
	// Porosity converts Darcy flux to pore velocity.
	Porosity float64
	// Tol is the CG relative tolerance (default 1e-10).
	Tol float64
}

// LognormalK builds a heterogeneous conductivity field with the given
// geometric mean and log-std-dev — the standard aquifer heterogeneity
// model.
func LognormalK(nx, ny, nz int, geomMean, sigmaLn float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, nx*ny*nz)
	for i := range out {
		out[i] = geomMean * math.Exp(sigmaLn*rng.NormFloat64())
	}
	return out
}

// FlowField is the solved head and cell-centered pore-velocity field.
type FlowField struct {
	NX, NY, NZ int
	Dx         float64
	Head       []float64
	VX, VY, VZ []float64
	// CGIterations reports solver effort.
	CGIterations int
}

// Idx converts cell coordinates to a linear index.
func (f *FlowField) Idx(x, y, z int) int { return x + f.NX*(y+f.NY*z) }

func harmonic(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return 2 * a * b / (a + b)
}

// stencil is TRACE's assembled 7-point operator on the unknowns (the
// interior-in-x cells 1..NX-2, all y and z, x fastest): one
// transmissibility per face plus the diagonal. It depends only on the
// grid, K and Dx, so a coupled run assembles it once and every solve —
// and every CG iteration inside one — reuses it.
type stencil struct {
	cfg FlowConfig // validated, Tol defaulted
	inx int        // unknowns per row: NX-2
	// Face transmissibilities per unknown; an entry whose neighbor lies
	// outside the no-flow y/z boundary stays 0 and is never read.
	xm, xp, ym, yp, zm, zp []float64
	diag                   []float64
}

// assemble validates cfg and builds its stencil.
func assemble(cfg FlowConfig) (*stencil, error) {
	nx, ny, nz := cfg.NX, cfg.NY, cfg.NZ
	if nx < 3 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("groundwater: grid %dx%dx%d too small (need nx >= 3)", nx, ny, nz)
	}
	if len(cfg.K) != nx*ny*nz {
		return nil, fmt.Errorf("groundwater: K length %d != %d cells", len(cfg.K), nx*ny*nz)
	}
	if cfg.Dx <= 0 || cfg.Porosity <= 0 {
		return nil, fmt.Errorf("groundwater: Dx and Porosity must be positive")
	}
	if cfg.Tol == 0 {
		cfg.Tol = 1e-10
	}
	n := (nx - 2) * ny * nz
	s := &stencil{cfg: cfg, inx: nx - 2,
		xm: make([]float64, n), xp: make([]float64, n),
		ym: make([]float64, n), yp: make([]float64, n),
		zm: make([]float64, n), zp: make([]float64, n),
		diag: make([]float64, n)}
	// Interface transmissibility between two cells (unit cross-section
	// area divided by spacing folds into a single Dx factor).
	trans := func(c1, c2 int) float64 { return harmonic(cfg.K[c1], cfg.K[c2]) * cfg.Dx }
	u := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 1; x < nx-1; x++ {
				c := x + nx*(y+ny*z)
				// The diagonal sums the faces in the order apply visits
				// them: x-, x+, y-, y+, z-, z+.
				var diag float64
				s.xm[u] = trans(c, c-1)
				diag += s.xm[u]
				s.xp[u] = trans(c, c+1)
				diag += s.xp[u]
				// y, z neighbors: no-flow outside.
				if y > 0 {
					s.ym[u] = trans(c, c-nx)
					diag += s.ym[u]
				}
				if y < ny-1 {
					s.yp[u] = trans(c, c+nx)
					diag += s.yp[u]
				}
				if z > 0 {
					s.zm[u] = trans(c, c-nx*ny)
					diag += s.zm[u]
				}
				if z < nz-1 {
					s.zp[u] = trans(c, c+nx*ny)
					diag += s.zp[u]
				}
				s.diag[u] = diag
				u++
			}
		}
	}
	return s, nil
}

// apply is the flow system's linalg.Operator: dst = A src over the
// unknowns. The x- face of a row's first cell and the x+ face of its
// last touch a Dirichlet plane, which is on the right-hand side and not
// in src.
func (s *stencil) apply(dst, src []float64) {
	inx, ny, nz := s.inx, s.cfg.NY, s.cfg.NZ
	plane := inx * ny
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			first := inx * (y + ny*z)
			last := first + inx - 1
			for u := first; u <= last; u++ {
				var off float64
				if u > first {
					off += s.xm[u] * src[u-1]
				}
				if u < last {
					off += s.xp[u] * src[u+1]
				}
				if y > 0 {
					off += s.ym[u] * src[u-inx]
				}
				if y < ny-1 {
					off += s.yp[u] * src[u+inx]
				}
				if z > 0 {
					off += s.zm[u] * src[u-plane]
				}
				if z < nz-1 {
					off += s.zp[u] * src[u+plane]
				}
				dst[u] = s.diag[u]*src[u] - off
			}
		}
	}
}

// solve runs one steady-state solve on the assembled grid with the
// given Dirichlet heads (the stencil's own cfg.HeadLeft/HeadRight are
// not consulted: a coupled run drifts them from step to step).
func (s *stencil) solve(headLeft, headRight float64) (*FlowField, error) {
	cfg := s.cfg
	nx, ny, nz, inx := cfg.NX, cfg.NY, cfg.NZ, s.inx
	n := inx * ny * nz
	idx := func(x, y, z int) int { return x + nx*(y+ny*z) }

	// RHS from the Dirichlet planes, and a linear initial guess, which
	// speeds convergence.
	b := make([]float64, n)
	h := make([]float64, n)
	for first := 0; first < n; first += inx {
		last := first + inx - 1
		b[first] += s.xm[first] * headLeft
		b[last] += s.xp[last] * headRight
		for x := 1; x < nx-1; x++ {
			f := float64(x) / float64(nx-1)
			h[first+x-1] = headLeft + f*(headRight-headLeft)
		}
	}
	res, err := linalg.CG(s.apply, h, b, cfg.Tol, 40*n)
	if err != nil {
		return nil, fmt.Errorf("groundwater: CG failed: %w", err)
	}
	if !res.Converged {
		return nil, fmt.Errorf("groundwater: CG stalled at residual %g after %d iterations", res.Residual, res.Iterations)
	}

	// Assemble the full head field.
	field := &FlowField{NX: nx, NY: ny, NZ: nz, Dx: cfg.Dx,
		Head: make([]float64, nx*ny*nz), CGIterations: res.Iterations}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			field.Head[idx(0, y, z)] = headLeft
			field.Head[idx(nx-1, y, z)] = headRight
			copy(field.Head[idx(1, y, z):idx(nx-1, y, z)], h[inx*(y+ny*z):])
		}
	}
	// Cell-centered pore velocities from central differences of head
	// (one-sided at boundaries), v = -K grad h / porosity.
	field.VX = make([]float64, nx*ny*nz)
	field.VY = make([]float64, nx*ny*nz)
	field.VZ = make([]float64, nx*ny*nz)
	grad := func(hm, hp float64, cells int) float64 { return (hp - hm) / (float64(cells) * cfg.Dx) }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				c := idx(x, y, z)
				xm, xp := maxi(x-1, 0), mini(x+1, nx-1)
				ym, yp := maxi(y-1, 0), mini(y+1, ny-1)
				zm, zp := maxi(z-1, 0), mini(z+1, nz-1)
				k := cfg.K[c] / cfg.Porosity
				if xp > xm {
					field.VX[c] = -k * grad(field.Head[idx(xm, y, z)], field.Head[idx(xp, y, z)], xp-xm)
				}
				if yp > ym {
					field.VY[c] = -k * grad(field.Head[idx(x, ym, z)], field.Head[idx(x, yp, z)], yp-ym)
				}
				if zp > zm {
					field.VZ[c] = -k * grad(field.Head[idx(x, y, zm)], field.Head[idx(x, y, zp)], zp-zm)
				}
			}
		}
	}
	return field, nil
}

// Velocity samples the pore velocity at a fractional cell coordinate by
// trilinear interpolation with edge clamping.
func (f *FlowField) Velocity(x, y, z float64) (vx, vy, vz float64) {
	return trilinear(f.VX, f.NX, f.NY, f.NZ, x, y, z),
		trilinear(f.VY, f.NX, f.NY, f.NZ, x, y, z),
		trilinear(f.VZ, f.NX, f.NY, f.NZ, x, y, z)
}

func trilinear(data []float64, nx, ny, nz int, x, y, z float64) float64 {
	x0, y0, z0 := int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z))
	fx, fy, fz := x-float64(x0), y-float64(y0), z-float64(z0)
	cl := func(i, n int) int {
		if i < 0 {
			return 0
		}
		if i >= n {
			return n - 1
		}
		return i
	}
	at := func(x, y, z int) float64 { return data[cl(x, nx)+nx*(cl(y, ny)+ny*cl(z, nz))] }
	c00 := at(x0, y0, z0)*(1-fx) + at(x0+1, y0, z0)*fx
	c10 := at(x0, y0+1, z0)*(1-fx) + at(x0+1, y0+1, z0)*fx
	c01 := at(x0, y0, z0+1)*(1-fx) + at(x0+1, y0, z0+1)*fx
	c11 := at(x0, y0+1, z0+1)*(1-fx) + at(x0+1, y0+1, z0+1)*fx
	c0 := c00*(1-fy) + c10*fy
	c1 := c01*(1-fy) + c11*fy
	return c0*(1-fz) + c1*fz
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func mini(a, b int) int {
	if a < b {
		return a
	}
	return b
}
