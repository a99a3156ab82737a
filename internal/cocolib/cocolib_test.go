package cocolib

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestUniformMesh(t *testing.T) {
	m := UniformMesh(5)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Nodes[0] != 0 || m.Nodes[4] != 1 || m.Nodes[2] != 0.5 {
		t.Errorf("nodes = %v", m.Nodes)
	}
}

func TestMeshValidation(t *testing.T) {
	if err := (InterfaceMesh{Nodes: []float64{0}}).Validate(); err == nil {
		t.Error("single node accepted")
	}
	if err := (InterfaceMesh{Nodes: []float64{0, 0.5, 0.5, 1}}).Validate(); err == nil {
		t.Error("duplicate nodes accepted")
	}
	if err := (InterfaceMesh{Nodes: []float64{-0.1, 1}}).Validate(); err == nil {
		t.Error("out-of-range nodes accepted")
	}
}

func TestInterpolateExactForLinear(t *testing.T) {
	src := UniformMesh(11)
	dst := UniformMesh(7)
	field := make([]float64, 11)
	for i, x := range src.Nodes {
		field[i] = 3 + 2*x
	}
	out, err := Interpolate(src, field, dst)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range dst.Nodes {
		want := 3 + 2*x
		if math.Abs(out[i]-want) > 1e-12 {
			t.Fatalf("linear field not exact at %v: %v vs %v", x, out[i], want)
		}
	}
}

// Property: interpolation of a constant field onto any target mesh is
// exactly the constant, and values never exceed the source bounds
// (linear interpolation is monotonicity-preserving per segment).
func TestInterpolateProperties(t *testing.T) {
	f := func(vals []float64, nDstRaw uint8) bool {
		if len(vals) < 2 {
			return true
		}
		if len(vals) > 32 {
			vals = vals[:32]
		}
		for i := range vals {
			if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
				return true
			}
		}
		src := UniformMesh(len(vals))
		dst := UniformMesh(2 + int(nDstRaw%40))
		out, err := Interpolate(src, vals, dst)
		if err != nil {
			return false
		}
		min, max := vals[0], vals[0]
		for _, v := range vals {
			min = math.Min(min, v)
			max = math.Max(max, v)
		}
		for _, v := range out {
			if v < min-1e-9 || v > max+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInterpolateValidation(t *testing.T) {
	if _, err := Interpolate(UniformMesh(4), make([]float64, 3), UniformMesh(4)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestCouplerHandshakeAndExchange(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		var mesh InterfaceMesh
		if c.Rank() == 0 {
			mesh = UniformMesh(11)
		} else {
			mesh = UniformMesh(17) // non-matching
		}
		cp, err := NewCoupler(c, 1-c.Rank(), 9, mesh)
		if err != nil {
			return err
		}
		field := make([]float64, len(mesh.Nodes))
		for i, x := range mesh.Nodes {
			field[i] = float64(c.Rank()+1) * x // rank 0 sends x, rank 1 sends 2x
		}
		got, err := cp.Exchange(field)
		if err != nil {
			return err
		}
		// Linear fields cross the non-matching interface exactly.
		wantScale := 2.0
		if c.Rank() == 1 {
			wantScale = 1.0
		}
		for i, x := range mesh.Nodes {
			if math.Abs(got[i]-wantScale*x) > 1e-12 {
				t.Errorf("rank %d node %v: got %v want %v", c.Rank(), x, got[i], wantScale*x)
			}
		}
		steps, bytes := cp.Stats()
		if steps != 1 || bytes == 0 {
			t.Errorf("stats = %d, %d", steps, bytes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanelDeflectsUnderUniformLoad(t *testing.T) {
	m := UniformMesh(21)
	p := NewPanelSolver(m)
	load := make([]float64, 21)
	for i := range load {
		load[i] = 1
	}
	for s := 0; s < 3000; s++ {
		if err := p.Step(0.001, load); err != nil {
			t.Fatal(err)
		}
	}
	// Pinned ends, maximum near the center, symmetric.
	if p.W[0] != 0 || p.W[20] != 0 {
		t.Error("pinned ends moved")
	}
	if p.W[10] <= 0 {
		t.Errorf("center deflection %v, want > 0 under positive load", p.W[10])
	}
	if math.Abs(p.W[5]-p.W[15]) > 1e-6 {
		t.Errorf("asymmetric deflection: %v vs %v", p.W[5], p.W[15])
	}
	if p.W[10] <= p.W[5] {
		t.Error("deflection not peaked at center")
	}
}

func TestPanelValidation(t *testing.T) {
	p := NewPanelSolver(UniformMesh(5))
	if err := p.Step(0.01, make([]float64, 3)); err == nil {
		t.Error("bad load length accepted")
	}
}

func TestChannelPressureRespondsToDeflection(t *testing.T) {
	m := UniformMesh(11)
	f := NewChannelSolver(m, 1.0)
	flat := make([]float64, 11)
	if err := f.Step(flat); err != nil {
		t.Fatal(err)
	}
	base := append([]float64(nil), f.Pressure...)
	// Pressure drops along the channel.
	if base[10] >= base[0] {
		t.Error("no streamwise pressure drop")
	}
	// An opened channel (positive deflection) lowers the pressure.
	open := make([]float64, 11)
	open[5] = 0.5
	if err := f.Step(open); err != nil {
		t.Fatal(err)
	}
	if f.Pressure[5] >= base[5] {
		t.Error("deflection did not lower local pressure")
	}
	if err := f.Step(make([]float64, 3)); err == nil {
		t.Error("bad deflection length accepted")
	}
}

func TestRunFSIConverges(t *testing.T) {
	net := netsim.New(sim.NewKernel())
	net.Connect(net.AddNode("vpp-fluid"), net.AddNode("t3e-structure"),
		netsim.LinkConfig{Bps: 1e9, Delay: 20 * time.Microsecond})
	net.ComputeRoutes()
	res, err := RunFSI(net, [2]string{"vpp-fluid", "t3e-structure"}, 33, 21, 2000, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	// Every exchange waits out at least the link's delay.
	if min := 2000 * 20e-6; res.NetworkSeconds < min {
		t.Errorf("network time = %v s, want >= %v s of propagation alone", res.NetworkSeconds, min)
	}
	if res.MaxDeflection <= 0 {
		t.Error("panel did not deflect under flow pressure")
	}
	// Static aeroelastic equilibrium: the per-step change has decayed
	// to noise level.
	if res.TipResidual > 1e-4 {
		t.Errorf("FSI not converged: residual %g", res.TipResidual)
	}
	if res.Steps != 2000 || res.BytesExchanged == 0 {
		t.Errorf("exchange stats: %d steps, %d bytes", res.Steps, res.BytesExchanged)
	}
}

func TestRunFSIValidation(t *testing.T) {
	if _, err := RunFSI(nil, [2]string{"a", "b"}, 10, 10, 0, 0.01); err == nil {
		t.Error("zero steps accepted")
	}
}
