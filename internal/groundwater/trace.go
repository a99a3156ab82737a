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
// right-hand side. They are stored as one face record per unknown, so a
// cell's seven coefficients share a cache line or two. Every CG
// iteration then makes three passes over memory: the search direction
// update, the operator sweep over the face records (which also returns
// p·Ap), and one pass that updates the solution and residual and sums
// r·r. Every sum keeps the order of additions of the unfused solve.
// Initial guess and tolerance are the same for every solve (no warm
// start), so a coupled step is bit for bit the fresh solve of its
// boundary condition.
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

func harmonic(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return 2 * a * b / (a + b)
}

// face is one unknown's row of the assembled operator: the
// transmissibility of each of its six faces, in the order apply adds
// them, and the diagonal. A face whose neighbor lies outside the
// no-flow y/z boundary stays +0.
type face struct {
	xm, xp, ym, yp, zm, zp, diag float64
}

// stencil is TRACE's assembled 7-point operator on the unknowns (the
// interior-in-x cells 1..NX-2, all y and z, x fastest): one face record
// per unknown. It depends only on the grid, K and Dx, so a coupled run
// assembles it once and every solve — and every CG iteration inside
// one — reuses it, together with the solve's scratch vectors, so a
// stencil serves one solve at a time.
type stencil struct {
	cfg   FlowConfig // validated, Tol defaulted
	inx   int        // unknowns per row: NX-2
	faces []face
	// zero is a row of +0 that stands in for a y/z neighbor row outside
	// the grid, so every row runs the same loop.
	zero []float64
	// Solve scratch, kept across the solves of a coupled run.
	b, h []float64
	cg   linalg.CGWork
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
	s := &stencil{cfg: cfg, inx: nx - 2, faces: make([]face, n), zero: make([]float64, nx-2),
		b: make([]float64, n), h: make([]float64, n)}
	// Interface transmissibility between two cells (unit cross-section
	// area divided by spacing folds into a single Dx factor).
	trans := func(c1, c2 int) float64 { return harmonic(cfg.K[c1], cfg.K[c2]) * cfg.Dx }
	u := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 1; x < nx-1; x++ {
				c := x + nx*(y+ny*z)
				f := &s.faces[u]
				// The diagonal sums the faces in the order apply visits
				// them: x-, x+, y-, y+, z-, z+.
				var diag float64
				f.xm = trans(c, c-1)
				diag += f.xm
				f.xp = trans(c, c+1)
				diag += f.xp
				// y, z neighbors: no-flow outside.
				if y > 0 {
					f.ym = trans(c, c-nx)
					diag += f.ym
				}
				if y < ny-1 {
					f.yp = trans(c, c+nx)
					diag += f.yp
				}
				if z > 0 {
					f.zm = trans(c, c-nx*ny)
					diag += f.zm
				}
				if z < nz-1 {
					f.zp = trans(c, c+nx*ny)
					diag += f.zp
				}
				f.diag = diag
				u++
			}
		}
	}
	return s, nil
}

// apply is the flow system's linalg.Operator: dst = A src over the
// unknowns, returning src·dst summed in index order. The x- face of a
// row's first cell and the x+ face of its last touch a Dirichlet plane,
// which is on the right-hand side and not in src, so those two cells
// take the per-cell path; the cells between run one branch-free loop.
//
// A y/z neighbor outside the grid is read from s.zero, and its face is
// +0, so the loop adds a +0 term where the per-cell path adds nothing.
// off starts at +0 and a sum that starts at +0 is never -0, so adding
// +0 leaves every bit of off as it was, for any src.
func (s *stencil) apply(dst, src []float64) float64 {
	inx, ny, nz := s.inx, s.cfg.NY, s.cfg.NZ
	plane := inx * ny
	var dot float64
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			first := inx * (y + ny*z)
			row := src[first : first+inx]
			ym, yp, zm, zp := s.zero, s.zero, s.zero, s.zero
			if y > 0 {
				ym = src[first-inx : first]
			}
			if y < ny-1 {
				yp = src[first+inx : first+2*inx]
			}
			if z > 0 {
				zm = src[first-plane : first-plane+inx]
			}
			if z < nz-1 {
				zp = src[first+plane : first+plane+inx]
			}
			fs := s.faces[first : first+inx]
			out := dst[first : first+inx]
			// One length for every slice of the row lets the compiler drop
			// the loop's bounds checks.
			ym, yp, zm, zp = ym[:len(row)], yp[:len(row)], zm[:len(row)], zp[:len(row)]
			fs, out = fs[:len(row)], out[:len(row)]

			dot = edge(out, row, fs, ym, yp, zm, zp, 0, dot)
			for i := 1; i < len(row)-1; i++ {
				f := &fs[i]
				var off float64
				off += f.xm * row[i-1]
				off += f.xp * row[i+1]
				off += f.ym * ym[i]
				off += f.yp * yp[i]
				off += f.zm * zm[i]
				off += f.zp * zp[i]
				d := f.diag*row[i] - off
				out[i] = d
				dot += row[i] * d
			}
			if len(row) > 1 {
				dot = edge(out, row, fs, ym, yp, zm, zp, len(row)-1, dot)
			}
		}
	}
	return dot
}

// edge is apply's per-cell path for cell i of a row, the row's first or
// last: it adds an x face only where the neighbor is an unknown. It
// returns dot with the cell's src·dst term added.
func edge(out, row []float64, fs []face, ym, yp, zm, zp []float64, i int, dot float64) float64 {
	f := &fs[i]
	var off float64
	if i > 0 {
		off += f.xm * row[i-1]
	}
	if i < len(row)-1 {
		off += f.xp * row[i+1]
	}
	off += f.ym * ym[i]
	off += f.yp * yp[i]
	off += f.zm * zm[i]
	off += f.zp * zp[i]
	d := f.diag*row[i] - off
	out[i] = d
	return dot + row[i]*d
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
	b, h := s.b, s.h
	clear(b)
	for first := 0; first < n; first += inx {
		last := first + inx - 1
		b[first] += s.faces[first].xm * headLeft
		b[last] += s.faces[last].xp * headRight
		for x := 1; x < nx-1; x++ {
			f := float64(x) / float64(nx-1)
			h[first+x-1] = headLeft + f*(headRight-headLeft)
		}
	}
	res, err := linalg.CG(s.apply, h, b, cfg.Tol, 40*n, &s.cg)
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
// trilinear interpolation with edge clamping. The three components share
// one sample point: its corner indices and weights are found once.
func (f *FlowField) Velocity(x, y, z float64) (vx, vy, vz float64) {
	k := f.corners(x, y, z)
	return k.blend(f.VX), k.blend(f.VY), k.blend(f.VZ)
}

// corners is one trilinear sample point: the linear indices of the
// eight edge-clamped cells around it, x fastest, then y, then z, and
// its fractional offsets from the lowest of them.
type corners struct {
	c          [8]int
	fx, fy, fz float64
}

func (f *FlowField) corners(x, y, z float64) corners {
	nx, ny, nz := f.NX, f.NY, f.NZ
	x0, y0, z0 := int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z))
	k := corners{fx: x - float64(x0), fy: y - float64(y0), fz: z - float64(z0)}
	xa, xb := clampCell(x0, nx), clampCell(x0+1, nx)
	ya, yb := clampCell(y0, ny), clampCell(y0+1, ny)
	za, zb := clampCell(z0, nz), clampCell(z0+1, nz)
	k.c = [8]int{
		xa + nx*(ya+ny*za), xb + nx*(ya+ny*za),
		xa + nx*(yb+ny*za), xb + nx*(yb+ny*za),
		xa + nx*(ya+ny*zb), xb + nx*(ya+ny*zb),
		xa + nx*(yb+ny*zb), xb + nx*(yb+ny*zb),
	}
	return k
}

// blend interpolates data at the sample point: along x first, then y,
// then z.
func (k *corners) blend(data []float64) float64 {
	fx, fy, fz := k.fx, k.fy, k.fz
	c00 := data[k.c[0]]*(1-fx) + data[k.c[1]]*fx
	c10 := data[k.c[2]]*(1-fx) + data[k.c[3]]*fx
	c01 := data[k.c[4]]*(1-fx) + data[k.c[5]]*fx
	c11 := data[k.c[6]]*(1-fx) + data[k.c[7]]*fx
	c0 := c00*(1-fy) + c10*fy
	c1 := c01*(1-fy) + c11*fy
	return c0*(1-fz) + c1*fz
}

// clampCell clamps a cell index into [0, n-1].
func clampCell(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
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
