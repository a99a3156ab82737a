package climate

import (
	"math"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestGridGeometry(t *testing.T) {
	g := Grid{NLat: 4, NLon: 8}
	if g.Cells() != 32 {
		t.Error("cells")
	}
	if g.Lat(0) >= 0 || g.Lat(3) <= 0 {
		t.Error("latitude orientation")
	}
	if math.Abs(g.Lat(0)+g.Lat(3)) > 1e-12 {
		t.Error("latitudes not symmetric")
	}
	if g.Lon(0) <= 0 || g.Lon(7) >= 360 {
		t.Error("longitude range")
	}
}

func TestRegridConstantExact(t *testing.T) {
	src := Grid{NLat: 32, NLon: 64}
	dst := Grid{NLat: 10, NLon: 20}
	f := make([]float64, src.Cells())
	for i := range f {
		f[i] = 7.25
	}
	out := make([]float64, dst.Cells())
	if err := Regrid(src, f, dst, out); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if math.Abs(v-7.25) > 1e-12 {
			t.Fatalf("constant not preserved at %d: %v", i, v)
		}
	}
}

func TestRegridSmoothFieldRoundTrip(t *testing.T) {
	src := Grid{NLat: 64, NLon: 128}
	dst := Grid{NLat: 32, NLon: 64}
	f := make([]float64, src.Cells())
	for j := 0; j < src.NLat; j++ {
		for i := 0; i < src.NLon; i++ {
			f[src.Idx(j, i)] = math.Sin(src.Lat(j)*math.Pi/180) +
				0.3*math.Cos(2*src.Lon(i)*math.Pi/180)
		}
	}
	down, back := make([]float64, dst.Cells()), make([]float64, src.Cells())
	if err := Regrid(src, f, dst, down); err != nil {
		t.Fatal(err)
	}
	if err := Regrid(dst, down, src, back); err != nil {
		t.Fatal(err)
	}
	// Smooth fields survive a down-up round trip within a few percent.
	var rms, norm float64
	for i := range f {
		d := back[i] - f[i]
		rms += d * d
		norm += f[i] * f[i]
	}
	if rms/norm > 0.01 {
		t.Errorf("round-trip error %.3f%%", 100*rms/norm)
	}
	// Area mean approximately conserved.
	if d := math.Abs(AreaMean(src, f) - AreaMean(dst, down)); d > 0.01 {
		t.Errorf("area mean drifted by %v", d)
	}
}

// regridPerCell is the reference Regrid is pinned against: both taps
// computed for every destination cell, in row order.
func regridPerCell(src Grid, f []float64, dst Grid, out []float64) {
	for j := 0; j < dst.NLat; j++ {
		fj := (dst.Lat(j)+90)/180*float64(src.NLat) - 0.5
		j0 := int(math.Floor(fj))
		wj := fj - float64(j0)
		j1 := j0 + 1
		if j0 < 0 {
			j0, j1, wj = 0, 0, 0
		}
		if j1 >= src.NLat {
			j0, j1, wj = src.NLat-1, src.NLat-1, 0
		}
		for i := 0; i < dst.NLon; i++ {
			fi := dst.Lon(i)/360*float64(src.NLon) - 0.5
			i0 := int(math.Floor(fi))
			wi := fi - float64(i0)
			i1 := i0 + 1
			i0 = ((i0 % src.NLon) + src.NLon) % src.NLon
			i1 = ((i1 % src.NLon) + src.NLon) % src.NLon
			v00, v01 := f[src.Idx(j0, i0)], f[src.Idx(j0, i1)]
			v10, v11 := f[src.Idx(j1, i0)], f[src.Idx(j1, i1)]
			out[dst.Idx(j, i)] = (1-wj)*((1-wi)*v00+wi*v01) + wj*((1-wi)*v10+wi*v11)
		}
	}
}

func TestRegridEqualsPerCellTapsBitForBit(t *testing.T) {
	// The climate-coupled grids both ways, plus destinations wider than
	// one strip of hoisted column taps.
	for _, c := range []struct{ src, dst Grid }{
		{Grid{64, 128}, Grid{32, 64}},
		{Grid{32, 64}, Grid{64, 128}},
		{Grid{16, 40}, Grid{9, 300}},
		{Grid{12, 700}, Grid{7, 513}},
	} {
		f := make([]float64, c.src.Cells())
		for i := range f {
			f[i] = math.Sin(float64(i)*0.37) * float64(1+i%11)
		}
		got, want := make([]float64, c.dst.Cells()), make([]float64, c.dst.Cells())
		if err := Regrid(c.src, f, c.dst, got); err != nil {
			t.Fatal(err)
		}
		regridPerCell(c.src, f, c.dst, want)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v -> %v: cell %d is %v, per-cell taps give %v", c.src, c.dst, i, got[i], want[i])
			}
		}
		if n := testing.AllocsPerRun(5, func() { Regrid(c.src, f, c.dst, got) }); n != 0 {
			t.Errorf("%v -> %v: Regrid allocates %.0f times a call", c.src, c.dst, n)
		}
	}
}

func TestRegridValidation(t *testing.T) {
	if err := Regrid(Grid{4, 4}, make([]float64, 3), Grid{2, 2}, make([]float64, 4)); err == nil {
		t.Error("bad field length accepted")
	}
	if err := Regrid(Grid{4, 4}, make([]float64, 16), Grid{2, 2}, make([]float64, 3)); err == nil {
		t.Error("bad output length accepted")
	}
}

func TestOceanEquilibriumStable(t *testing.T) {
	g := Grid{NLat: 24, NLon: 48}
	o := NewOcean(g)
	before := append([]float64(nil), o.SST...)
	zero := make([]float64, g.Cells())
	for s := 0; s < 50; s++ {
		if err := o.Step(3600, zero); err != nil {
			t.Fatal(err)
		}
	}
	// At climatology with no flux the state drifts only by the slow
	// diffusive smoothing of the profile — bounded and small.
	var worst float64
	for i := range before {
		if d := math.Abs(o.SST[i] - before[i]); d > worst {
			worst = d
		}
	}
	if worst > 1.5 {
		t.Errorf("equilibrium drifted by %.2f K over 50 h", worst)
	}
}

func TestOceanWarmsUnderFlux(t *testing.T) {
	// Compare against a zero-flux control so diffusion/relaxation
	// drift cancels: the heated ocean must end warmer by about
	// flux*time/HeatCapacity.
	g := Grid{NLat: 16, NLon: 32}
	heated, control := NewOcean(g), NewOcean(g)
	flux := make([]float64, g.Cells())
	for i := range flux {
		flux[i] = 500 // W/m^2 heating
	}
	zero := make([]float64, g.Cells())
	for s := 0; s < 50; s++ {
		if err := heated.Step(3600, flux); err != nil {
			t.Fatal(err)
		}
		if err := control.Step(3600, zero); err != nil {
			t.Fatal(err)
		}
	}
	gain := AreaMean(g, heated.SST) - AreaMean(g, control.SST)
	want := 500.0 * 3600 * 50 / heated.HeatCapacity
	if gain < want*0.5 || gain > want*1.2 {
		t.Errorf("flux warming = %.3f K, want ~%.3f", gain, want)
	}
}

func TestOceanIceAtPoles(t *testing.T) {
	g := Grid{NLat: 24, NLon: 48}
	o := NewOcean(g)
	// Climatology puts the poles at ~271 K -> partial ice.
	poleIce := o.Ice[g.Idx(0, 0)]
	eqIce := o.Ice[g.Idx(g.NLat/2, 0)]
	if poleIce <= 0 {
		t.Error("no polar ice")
	}
	if eqIce != 0 {
		t.Error("equatorial ice")
	}
	for _, v := range o.Ice {
		if v < 0 || v > 1 {
			t.Fatalf("ice fraction %v out of [0,1]", v)
		}
	}
}

func TestOceanValidation(t *testing.T) {
	o := NewOcean(Grid{NLat: 8, NLon: 16})
	if err := o.Step(3600, make([]float64, 3)); err == nil {
		t.Error("bad flux length accepted")
	}
}

func TestAtmosFluxDirection(t *testing.T) {
	g := Grid{NLat: 16, NLon: 32}
	a := NewAtmos(g)
	// SST much colder than air everywhere: flux into ocean positive.
	sst := make([]float64, g.Cells())
	for i := range sst {
		sst[i] = 250
	}
	heat, tauX, tauY := make([]float64, g.Cells()), make([]float64, g.Cells()), make([]float64, g.Cells())
	if err := a.Step(1800, sst, heat, tauX, tauY); err != nil {
		t.Fatal(err)
	}
	warm := 0
	for _, q := range heat {
		if q > 0 {
			warm++
		}
	}
	if warm < g.Cells()*9/10 {
		t.Errorf("only %d/%d cells have downward flux onto a cold ocean", warm, g.Cells())
	}
	// Wind stress follows the jet: westerly (positive) in
	// midlatitudes, easterly (negative) in the deep tropics.
	mid := g.Idx(g.NLat-3, 0) // ~ +60 degrees
	trop := g.Idx(g.NLat/2, 0)
	if tauX[mid] <= 0 {
		t.Errorf("midlatitude stress %v, want westerly > 0", tauX[mid])
	}
	if tauX[trop] >= 0 {
		t.Errorf("tropical stress %v, want easterly < 0", tauX[trop])
	}
}

func TestAtmosStaysBounded(t *testing.T) {
	g := Grid{NLat: 16, NLon: 32}
	a := NewAtmos(g)
	sst := make([]float64, g.Cells())
	for i := range sst {
		sst[i] = 290
	}
	heat, tauX, tauY := make([]float64, g.Cells()), make([]float64, g.Cells()), make([]float64, g.Cells())
	for s := 0; s < 200; s++ {
		if err := a.Step(1800, sst, heat, tauX, tauY); err != nil {
			t.Fatal(err)
		}
	}
	for i, ta := range a.TA {
		if ta < 180 || ta > 340 {
			t.Fatalf("air temperature %v K at %d out of physical range", ta, i)
		}
	}
}

func TestJetStructure(t *testing.T) {
	if Jet(45) <= 0 {
		t.Error("no midlatitude westerlies")
	}
	if Jet(0) >= 0 {
		t.Error("no tropical easterlies")
	}
}

func TestCoupledRunEndToEnd(t *testing.T) {
	cfg := CoupledConfig{
		OceanGrid: Grid{NLat: 32, NLon: 64},
		AtmosGrid: Grid{NLat: 16, NLon: 32},
		Dt:        3600,
		Steps:     24,
	}
	// Three hosts, the coupler in the middle.
	net := netsim.New(sim.NewKernel())
	link := netsim.LinkConfig{Bps: 2e9, Delay: 50 * time.Microsecond}
	coupler := net.AddNode("coupler")
	net.Connect(net.AddNode("cray-t3e"), coupler, link)
	net.Connect(net.AddNode("ibm-sp2"), coupler, link)
	net.ComputeRoutes()
	res, err := RunCoupled(net, [3]string{"cray-t3e", "ibm-sp2", "coupler"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Four messages cross a link per step, each at least its delay.
	if min := 24 * 4 * 50e-6; res.NetworkSeconds < min {
		t.Errorf("network time = %v s, want >= %v s of propagation alone", res.NetworkSeconds, min)
	}
	if res.Steps != 24 {
		t.Errorf("steps = %d", res.Steps)
	}
	// Exchange size: ocean sends 2 fields on 32x64, atmos 3 on 16x32.
	want := 8*2*32*64 + 8*3*16*32
	if res.BytesPerExchange != want {
		t.Errorf("bytes/exchange = %d, want %d", res.BytesPerExchange, want)
	}
	// Physical sanity after a simulated day.
	if res.FinalMeanSST < 270 || res.FinalMeanSST > 310 {
		t.Errorf("mean SST = %.1f K", res.FinalMeanSST)
	}
	if res.MinSST < FreezePoint-2-1e-9 || res.MaxSST > 320 {
		t.Errorf("SST range [%.1f, %.1f]", res.MinSST, res.MaxSST)
	}
	if res.FinalIceFraction <= 0 || res.FinalIceFraction > 0.5 {
		t.Errorf("ice fraction = %.3f", res.FinalIceFraction)
	}
}

func TestCoupledRunValidation(t *testing.T) {
	if _, err := RunCoupled(nil, [3]string{"a", "b", "c"}, CoupledConfig{}); err == nil {
		t.Error("zero steps accepted")
	}
}
