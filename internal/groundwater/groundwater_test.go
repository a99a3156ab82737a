package groundwater

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func uniformCfg() FlowConfig {
	return FlowConfig{
		NX: 20, NY: 8, NZ: 6, Dx: 1.0,
		K:        UniformK(20, 8, 6, 1e-4),
		HeadLeft: 10, HeadRight: 0, Porosity: 0.3,
	}
}

func TestUniformFlowLinearHead(t *testing.T) {
	f, err := SolveFlow(uniformCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Head must be linear in x and uniform in y, z.
	for x := 0; x < 20; x++ {
		want := 10 * (1 - float64(x)/19)
		for _, yz := range [][2]int{{0, 0}, {4, 3}, {7, 5}} {
			got := f.Head[x+f.NX*(yz[0]+f.NY*yz[1])]
			if math.Abs(got-want) > 1e-6 {
				t.Fatalf("head(%d,%d,%d) = %v, want %v", x, yz[0], yz[1], got, want)
			}
		}
	}
}

func TestUniformFlowVelocity(t *testing.T) {
	cfg := uniformCfg()
	f, err := SolveFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// v = -K dh/dx / porosity = 1e-4 * (10/19) / 0.3.
	want := 1e-4 * (10.0 / 19.0) / 0.3
	vx, vy, vz := f.Velocity(10, 4, 3)
	if math.Abs(vx-want)/want > 1e-6 {
		t.Errorf("vx = %g, want %g", vx, want)
	}
	if math.Abs(vy) > want*1e-6 || math.Abs(vz) > want*1e-6 {
		t.Errorf("transverse velocities not ~0: %g %g", vy, vz)
	}
}

func TestHeterogeneousFlowMassBalance(t *testing.T) {
	cfg := uniformCfg()
	cfg.K = LognormalK(20, 8, 6, 1e-4, 1.0, 7)
	f, err := SolveFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Darcy flux through each x-plane of interfaces must be equal
	// (steady state, no-flow lateral boundaries).
	flux := func(x int) float64 {
		var q float64
		for z := 0; z < cfg.NZ; z++ {
			for y := 0; y < cfg.NY; y++ {
				c1 := x + f.NX*(y+f.NY*z)
				c2 := c1 + 1
				k := harmonic(cfg.K[c1], cfg.K[c2])
				q += k * (f.Head[c1] - f.Head[c2]) * cfg.Dx
			}
		}
		return q
	}
	q0 := flux(0)
	if q0 <= 0 {
		t.Fatal("no flow from high to low head")
	}
	for x := 1; x < 19; x++ {
		if diff := math.Abs(flux(x)-q0) / q0; diff > 1e-6 {
			t.Fatalf("mass balance violated at plane %d: %.2e", x, diff)
		}
	}
}

func TestHeadBoundsAndMonotonicity(t *testing.T) {
	cfg := uniformCfg()
	cfg.K = LognormalK(20, 8, 6, 1e-4, 1.5, 3)
	f, err := SolveFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Discrete maximum principle: head within [HeadRight, HeadLeft].
	for i, h := range f.Head {
		if h < -1e-9 || h > 10+1e-9 {
			t.Fatalf("head[%d] = %v outside [0, 10]", i, h)
		}
	}
}

func TestSolveFlowValidation(t *testing.T) {
	cfg := uniformCfg()
	cfg.NX = 2
	if _, err := SolveFlow(cfg); err == nil {
		t.Error("tiny grid accepted")
	}
	cfg = uniformCfg()
	cfg.K = cfg.K[:10]
	if _, err := SolveFlow(cfg); err == nil {
		t.Error("short K accepted")
	}
	cfg = uniformCfg()
	cfg.Porosity = 0
	if _, err := SolveFlow(cfg); err == nil {
		t.Error("zero porosity accepted")
	}
}

func TestParticlesAdvectDownGradient(t *testing.T) {
	cfg := uniformCfg()
	f, err := SolveFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parts := InjectPlane(f, 50, 1)
	vx, _, _ := f.Velocity(10, 4, 3) // m/s
	// Time to traverse ~5 cells.
	dt := 1.0 * cfg.Dx / vx
	res, err := Track(f, parts, TrackConfig{Dt: dt / 10, Steps: 50, Seed: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// After 5 cell-traversal times, mean position ~ 0.5 + 5 cells.
	if math.Abs(res.MeanX-5.5) > 0.3 {
		t.Errorf("mean x = %.2f cells, want ~5.5", res.MeanX)
	}
	if res.Exited != 0 {
		t.Errorf("%d particles exited early", res.Exited)
	}
}

func TestParticlesBreakthrough(t *testing.T) {
	cfg := uniformCfg()
	f, err := SolveFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parts := InjectPlane(f, 30, 1)
	vx, _, _ := f.Velocity(10, 4, 3)
	traverse := 19 * cfg.Dx / vx // full domain
	res, err := Track(f, parts, TrackConfig{Dt: traverse / 200, Steps: 300, Seed: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exited != 30 {
		t.Fatalf("only %d/30 particles broke through", res.Exited)
	}
	// Pure advection: breakthrough at ~traverse time.
	for _, bt := range res.Breakthrough {
		if math.Abs(bt-traverse)/traverse > 0.1 {
			t.Fatalf("breakthrough at %.0f s, want ~%.0f", bt, traverse)
		}
	}
}

func TestDispersionSpreadsPlume(t *testing.T) {
	cfg := uniformCfg()
	f, err := SolveFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vx, _, _ := f.Velocity(10, 4, 3)
	dt := cfg.Dx / vx / 10
	run := func(disp float64) float64 {
		parts := InjectPlane(f, 200, 4)
		if _, err := Track(f, parts, TrackConfig{Dt: dt, Steps: 40, Dispersion: disp, Seed: 5}, 0); err != nil {
			t.Fatal(err)
		}
		var mean, ss float64
		for _, p := range parts {
			mean += p.X
		}
		mean /= 200
		for _, p := range parts {
			ss += (p.X - mean) * (p.X - mean)
		}
		return math.Sqrt(ss / 200)
	}
	if spread, pure := run(2e-4), run(0); spread <= pure+1e-9 {
		t.Errorf("dispersion did not spread the plume: %g vs %g", spread, pure)
	}
}

func TestTrackValidation(t *testing.T) {
	f := &FlowField{NX: 4, NY: 4, NZ: 4, Dx: 1,
		VX: make([]float64, 64), VY: make([]float64, 64), VZ: make([]float64, 64)}
	if _, err := Track(f, nil, TrackConfig{}, 0); err == nil {
		t.Error("zero dt accepted")
	}
}

func TestReflect(t *testing.T) {
	if v := reflect(-0.5, 10); v != 0.5 {
		t.Errorf("reflect(-0.5) = %v", v)
	}
	if v := reflect(10.5, 10); v != 9.5 {
		t.Errorf("reflect(10.5) = %v", v)
	}
	if v := reflect(5, 10); v != 5 {
		t.Errorf("reflect(5) = %v", v)
	}
}

func TestCoupledRunTransfersField(t *testing.T) {
	flow := uniformCfg()
	// Heterogeneous conductivity so the solver does real work (a
	// uniform field is solved exactly by the linear initial guess).
	flow.K = LognormalK(flow.NX, flow.NY, flow.NZ, 1e-4, 0.8, 11)
	cfg := CoupledConfig{
		Flow:      flow,
		Track:     TrackConfig{Dt: 1000, Steps: 10, Seed: 3},
		Particles: 40,
		Steps:     4,
		HeadDrift: 0.1,
	}
	net := netsim.New(sim.NewKernel())
	net.Connect(net.AddNode("ibm-sp2"), net.AddNode("cray-t3e"),
		netsim.LinkConfig{Bps: 1e9, Delay: 100 * time.Microsecond})
	net.ComputeRoutes()
	res, err := RunCoupled(net, [2]string{"ibm-sp2", "cray-t3e"}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Five messages, each one link delay plus its bytes at the link rate.
	if min := 5*100e-6 + float64(res.TotalBytes)*8/1e9; res.NetworkSeconds < min {
		t.Errorf("network time = %v s, want >= %v s", res.NetworkSeconds, min)
	}
	wantBytes := 3 * 4 * 20 * 8 * 6
	if res.BytesPerStep != wantBytes {
		t.Errorf("field transfer = %d bytes/step, want %d", res.BytesPerStep, wantBytes)
	}
	if res.TotalBytes != int64(4*wantBytes) {
		t.Errorf("total = %d", res.TotalBytes)
	}
	if res.FinalMeanX <= 0.5 {
		t.Error("particles did not advance over the coupled run")
	}
	if res.CGIterTotal <= 0 {
		t.Error("no CG effort reported")
	}
}

func TestCoupledRunValidation(t *testing.T) {
	if _, err := RunCoupled(nil, [2]string{"a", "b"}, nil, CoupledConfig{}); err == nil {
		t.Error("steps=0 accepted")
	}
}

// referenceOperator is the matrix-free closure SolveFlow applied before
// the stencil was assembled, kept verbatim: six harmonic means and the
// closure index math per cell per application. The assembled operator
// must reproduce its every output bit.
func referenceOperator(cfg FlowConfig) func(dst, src []float64) {
	nx, ny, nz := cfg.NX, cfg.NY, cfg.NZ
	idx := func(x, y, z int) int { return x + nx*(y+ny*z) }
	inx := nx - 2
	uidx := func(x, y, z int) int { return (x - 1) + inx*(y+ny*z) }
	trans := func(c1, c2 int) float64 { return harmonic(cfg.K[c1], cfg.K[c2]) * cfg.Dx }
	return func(dst, src []float64) {
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 1; x < nx-1; x++ {
					c := idx(x, y, z)
					u := uidx(x, y, z)
					var diag, off float64
					// x- neighbor.
					t := trans(c, idx(x-1, y, z))
					diag += t
					if x-1 >= 1 {
						off += t * src[uidx(x-1, y, z)]
					}
					// x+ neighbor.
					t = trans(c, idx(x+1, y, z))
					diag += t
					if x+1 <= nx-2 {
						off += t * src[uidx(x+1, y, z)]
					}
					// y, z neighbors: no-flow outside.
					if y > 0 {
						t = trans(c, idx(x, y-1, z))
						diag += t
						off += t * src[uidx(x, y-1, z)]
					}
					if y < ny-1 {
						t = trans(c, idx(x, y+1, z))
						diag += t
						off += t * src[uidx(x, y+1, z)]
					}
					if z > 0 {
						t = trans(c, idx(x, y, z-1))
						diag += t
						off += t * src[uidx(x, y, z-1)]
					}
					if z < nz-1 {
						t = trans(c, idx(x, y, z+1))
						diag += t
						off += t * src[uidx(x, y, z+1)]
					}
					dst[u] = diag*src[u] - off
				}
			}
		}
	}
}

// The assembled operator must reproduce the reference's every output bit
// and return src·dst exactly as a sequential sum adds it.
func TestAssembledOperatorMatchesReferenceBitForBit(t *testing.T) {
	for _, g := range [][3]int{{40, 16, 12}, {9, 1, 5}, {9, 5, 1}, {3, 4, 4}, {3, 1, 1}} {
		cfg := FlowConfig{NX: g[0], NY: g[1], NZ: g[2], Dx: 2.5, Porosity: 0.3,
			K: LognormalK(g[0], g[1], g[2], 1e-4, 1.0, 42)}
		st, err := assemble(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceOperator(cfg)
		n := (g[0] - 2) * g[1] * g[2]
		rng := rand.New(rand.NewSource(int64(n)))
		src, got, want := make([]float64, n), make([]float64, n), make([]float64, n)
		for trial := 0; trial < 4; trial++ {
			for i := range src {
				src[i] = rng.NormFloat64() * 10
				// The last trial mixes in -0, infinities and NaN: the +0
				// terms apply adds for missing neighbors move no bit of
				// those either.
				if trial == 3 {
					switch i % 5 {
					case 1:
						src[i] = math.Copysign(0, -1)
					case 2:
						src[i] = math.Inf(1 - 2*(i%2))
					case 3:
						src[i] = math.NaN()
					}
				}
			}
			dot := st.apply(got, src)
			ref(want, src)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("grid %v trial %d: dst[%d] = %x, reference %x", g, trial, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			var wantDot float64
			for i := range src {
				wantDot += src[i] * want[i]
			}
			if math.Float64bits(dot) != math.Float64bits(wantDot) {
				t.Fatalf("grid %v trial %d: apply returned src·dst = %x, sequential sum %x", g, trial,
					math.Float64bits(dot), math.Float64bits(wantDot))
			}
		}
	}
}

// referenceCG is linalg.CG as it was before its updates and dot
// products were fused into the operator and one update pass: the copy
// linalg's own tests keep, with its calls package-qualified.
func referenceCG(a func(dst, src []float64), x, b []float64, tol float64, maxIter int) (linalg.CGResult, error) {
	n := len(b)
	if len(x) != n {
		return linalg.CGResult{}, fmt.Errorf("linalg: CG dim mismatch x=%d b=%d", len(x), n)
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	bnorm := linalg.Norm2(b)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return linalg.CGResult{Converged: true}, nil
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
	rs := linalg.Dot(r, r)
	var it int
	for it = 0; it < maxIter; it++ {
		if math.Sqrt(rs)/bnorm < tol {
			return linalg.CGResult{Iterations: it, Residual: math.Sqrt(rs) / bnorm, Converged: true}, nil
		}
		a(ap, p)
		pap := linalg.Dot(p, ap)
		if pap <= 0 {
			return linalg.CGResult{Iterations: it, Residual: math.Sqrt(rs) / bnorm},
				fmt.Errorf("linalg: CG operator not positive definite (pAp=%g)", pap)
		}
		alpha := rs / pap
		linalg.Axpy(alpha, p, x)
		linalg.Axpy(-alpha, ap, r)
		rsNew := linalg.Dot(r, r)
		beta := rsNew / rs
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rs = rsNew
	}
	return linalg.CGResult{Iterations: it, Residual: math.Sqrt(rs) / bnorm, Converged: math.Sqrt(rs)/bnorm < tol}, nil
}

// The scenario's flow, solved the way it was before the stencil was
// assembled and CG fused (the matrix-free reference operator, the
// unfused CG, fresh vectors), must give st.solve's heads bit for bit
// and its iteration count, for a first solve and for a drifted one on
// the same stencil.
func TestSolveMatchesReferenceCGBitForBit(t *testing.T) {
	cfg := scenarioFlow()
	st, err := assemble(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceOperator(cfg)
	nx, ny, nz, inx := cfg.NX, cfg.NY, cfg.NZ, cfg.NX-2
	n := inx * ny * nz
	for step, headLeft := range []float64{cfg.HeadLeft, cfg.HeadLeft + 0.2} {
		got, err := st.solve(headLeft, cfg.HeadRight)
		if err != nil {
			t.Fatal(err)
		}
		// The reference right-hand side and initial guess.
		uidx := func(x, y, z int) int { return (x - 1) + inx*(y+ny*z) }
		b, h := make([]float64, n), make([]float64, n)
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				c := nx * (y + ny*z)
				b[uidx(1, y, z)] += harmonic(cfg.K[c+1], cfg.K[c]) * cfg.Dx * headLeft
				b[uidx(nx-2, y, z)] += harmonic(cfg.K[c+nx-2], cfg.K[c+nx-1]) * cfg.Dx * cfg.HeadRight
				for x := 1; x < nx-1; x++ {
					f := float64(x) / float64(nx-1)
					h[uidx(x, y, z)] = headLeft + f*(cfg.HeadRight-headLeft)
				}
			}
		}
		res, err := referenceCG(ref, h, b, 1e-10, 40*n)
		if err != nil || !res.Converged {
			t.Fatalf("step %d: reference CG %+v, %v", step, res, err)
		}
		if got.CGIterations != res.Iterations {
			t.Fatalf("step %d: %d CG iterations, reference %d", step, got.CGIterations, res.Iterations)
		}
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 1; x < nx-1; x++ {
					g, w := got.Head[x+got.NX*(y+got.NY*z)], h[uidx(x, y, z)]
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("step %d: head(%d,%d,%d) = %x, reference %x", step, x, y, z,
							math.Float64bits(g), math.Float64bits(w))
					}
				}
			}
		}
	}
}

// A coupled run solves every step on the stencil of its first: each
// step must still be exactly the fresh solve of the drifted problem.
func TestStencilReuseEqualsFreshSolves(t *testing.T) {
	cfg := scenarioFlow()
	st, err := assemble(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2; step++ {
		got, err := st.solve(cfg.HeadLeft, cfg.HeadRight)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SolveFlow(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.CGIterations != want.CGIterations {
			t.Fatalf("step %d: %d CG iterations on the reused stencil, %d fresh", step, got.CGIterations, want.CGIterations)
		}
		for name, pair := range map[string][2][]float64{
			"Head": {got.Head, want.Head}, "VX": {got.VX, want.VX}, "VY": {got.VY, want.VY}, "VZ": {got.VZ, want.VZ},
		} {
			for i := range pair[1] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("step %d: %s[%d] = %v on the reused stencil, %v fresh", step, name, i, pair[0][i], pair[1][i])
				}
			}
		}
		cfg.HeadLeft += 0.2
	}
}

// referenceTrilinear is how Velocity sampled each component before the
// three shared one set of corners, kept verbatim: the floor, the clamps
// and the eight indices once per component.
func referenceTrilinear(data []float64, nx, ny, nz int, x, y, z float64) float64 {
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

// Velocity must give the reference's bits for every component, inside
// the grid and past each edge, where the corners clamp.
func TestVelocityMatchesReferenceBitForBit(t *testing.T) {
	f, err := SolveFlow(scenarioFlow())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5000; trial++ {
		x := rng.Float64()*float64(f.NX+2) - 1
		y := rng.Float64()*float64(f.NY+2) - 1
		z := rng.Float64()*float64(f.NZ+2) - 1
		vx, vy, vz := f.Velocity(x, y, z)
		for _, c := range []struct {
			got  float64
			data []float64
		}{{vx, f.VX}, {vy, f.VY}, {vz, f.VZ}} {
			want := referenceTrilinear(c.data, f.NX, f.NY, f.NZ, x, y, z)
			if math.Float64bits(c.got) != math.Float64bits(want) {
				t.Fatalf("Velocity(%v, %v, %v) = %v, reference %v", x, y, z, c.got, want)
			}
		}
	}
}

// UniformK builds a homogeneous conductivity field.
func UniformK(nx, ny, nz int, k float64) []float64 {
	out := make([]float64, nx*ny*nz)
	for i := range out {
		out[i] = k
	}
	return out
}

// SolveFlow runs one steady-state TRACE solve.
func SolveFlow(cfg FlowConfig) (*FlowField, error) {
	s, err := assemble(cfg)
	if err != nil {
		return nil, err
	}
	return s.solve(cfg.HeadLeft, cfg.HeadRight)
}
