package meg

import (
	"math"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/machine"
	"repro/internal/mpi"
)

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 0, 0}
	b := Vec3{0, 1, 0}
	if c := a.Cross(b); c != (Vec3{0, 0, 1}) {
		t.Errorf("cross = %v", c)
	}
	if d := (Vec3{1, 1, 0}).Sub(b); d != a {
		t.Errorf("sub = %v", d)
	}
	if a.Dot(b) != 0 || a.Norm() != 1 {
		t.Error("dot/norm")
	}
	if s := a.Scale(3); s.X != 3 {
		t.Error("scale")
	}
}

func TestHelmetGeometry(t *testing.T) {
	arr := NewHelmetArray(64, 0.12)
	if len(arr.Positions) != 64 {
		t.Fatalf("%d sensors", len(arr.Positions))
	}
	for i, p := range arr.Positions {
		if math.Abs(p.Norm()-0.12) > 1e-12 {
			t.Fatalf("sensor %d not on sphere: |p| = %v", i, p.Norm())
		}
		if p.Z <= 0 {
			t.Fatalf("sensor %d below equator", i)
		}
	}
}

func TestRadialDipoleIsSilent(t *testing.T) {
	// In a spherical conductor a radial dipole produces no external
	// field: q parallel to p gives p x r . q = q . (p x r), and the
	// gain g = p x r is orthogonal to p.
	arr := NewHelmetArray(32, 0.12)
	p := Vec3{0.02, 0.01, 0.05}
	radial := p.Scale(1e-8 / p.Norm()) // moment along p
	b := arr.Forward(p, radial)
	for s, v := range b {
		if math.Abs(v) > 1e-22 {
			t.Fatalf("radial dipole visible at sensor %d: %g", s, v)
		}
	}
	// A tangential dipole is visible.
	tang := Vec3{-0.01, 0.02, 0}.Cross(p)
	tang = tang.Scale(1e-8 / tang.Norm())
	b = arr.Forward(p, tang)
	var peak float64
	for _, v := range b {
		if math.Abs(v) > peak {
			peak = math.Abs(v)
		}
	}
	if peak == 0 {
		t.Fatal("tangential dipole invisible")
	}
}

func TestFieldFallsWithDistance(t *testing.T) {
	arr := NewHelmetArray(32, 0.12)
	deep := Vec3{0.0, 0.01, 0.02}
	shallow := Vec3{0.0, 0.04, 0.08}
	mag := func(p Vec3) float64 {
		q := Vec3{1, 0, 0}.Cross(p)
		q = q.Scale(1e-8 / q.Norm())
		b := arr.Forward(p, q)
		var s float64
		for _, v := range b {
			s += v * v
		}
		return math.Sqrt(s)
	}
	if mag(shallow) <= mag(deep) {
		t.Error("shallow dipole should produce a stronger field")
	}
}

// buildScenario synthesizes data for one tangential dipole and returns
// everything MUSIC needs.
func buildScenario(t *testing.T, pos Vec3, noise float64) (*SensorArray, *ScanResult, Vec3) {
	t.Helper()
	arr := NewHelmetArray(48, 0.12)
	q := Vec3{1, 0.3, 0}.Cross(pos)
	q = q.Scale(2e-8 / q.Norm())
	nt := 100
	course := make([]float64, nt)
	for i := range course {
		course[i] = math.Sin(float64(i) * 0.3)
	}
	x, err := Synthesize(arr, []Dipole{{Pos: pos, Moment: q, Course: course}}, nt, noise, 5)
	if err != nil {
		t.Fatal(err)
	}
	cov := Covariance(x)
	us, vals, err := SignalSubspace(cov, 1)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] <= vals[1]*10 && noise == 0 {
		t.Fatalf("signal eigenvalue %g not dominant over %g", vals[0], vals[1])
	}
	grid := BrainGrid(0.09, 0.015)
	if len(grid) < 100 {
		t.Fatalf("grid too small: %d", len(grid))
	}
	return arr, Scan(arr, us, grid), pos
}

func TestMUSICLocalizesDipole(t *testing.T) {
	truth := Vec3{0.025, -0.015, 0.045}
	_, res, _ := buildScenario(t, truth, 0)
	best, val := res.Best()
	if val < 0.95 {
		t.Errorf("best MUSIC value = %.3f, want near 1", val)
	}
	if d := best.Sub(truth).Norm(); d > 0.02 {
		t.Errorf("localization error %.1f mm, want <= 20 mm (grid-limited)", d*1000)
	}
}

func TestMUSICWithNoise(t *testing.T) {
	truth := Vec3{0.02, 0.02, 0.05}
	arr, res, _ := buildScenario(t, truth, 0)
	_ = arr
	clean, _ := res.Best()
	_, resN, _ := buildScenario(t, truth, 1e-15) // modest noise vs ~1e-13 signals
	noisy, valN := resN.Best()
	if valN < 0.8 {
		t.Errorf("noisy MUSIC peak = %.3f", valN)
	}
	if d := noisy.Sub(clean).Norm(); d > 0.03 {
		t.Errorf("noise moved the peak by %.1f mm", d*1000)
	}
}

func TestMusicValueBounds(t *testing.T) {
	arr := NewHelmetArray(24, 0.12)
	pos := Vec3{0.02, 0, 0.04}
	q := Vec3{0, 0, 1}.Cross(pos)
	q = q.Scale(1e-8 / q.Norm())
	course := []float64{1, -1, 1, -1, 1, -1, 1, -1}
	x, _ := Synthesize(arr, []Dipole{{Pos: pos, Moment: q, Course: course}}, 8, 0, 1)
	us, _, err := SignalSubspace(Covariance(x), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Vec3{pos, {0.05, 0.05, 0.02}, {0, 0, 0.08}} {
		v := MusicValue(arr, us, p)
		if v < 0 || v > 1 {
			t.Fatalf("MUSIC value %v out of [0,1] at %v", v, p)
		}
	}
	// The origin has zero gain (p x r = 0): metric must be 0.
	if v := MusicValue(arr, us, Vec3{}); v != 0 {
		t.Errorf("origin MUSIC value = %v, want 0", v)
	}
}

func TestSynthesizeValidation(t *testing.T) {
	arr := NewHelmetArray(8, 0.12)
	_, err := Synthesize(arr, []Dipole{{Pos: Vec3{0, 0, 0.05}, Moment: Vec3{1, 0, 0}, Course: []float64{1}}}, 5, 0, 1)
	if err == nil {
		t.Error("short time course accepted")
	}
}

func TestParallelScanMatchesSerial(t *testing.T) {
	truth := Vec3{0.02, 0.01, 0.05}
	arr := NewHelmetArray(32, 0.12)
	q := Vec3{1, 0, 0}.Cross(truth)
	q = q.Scale(1e-8 / q.Norm())
	nt := 64
	course := make([]float64, nt)
	for i := range course {
		course[i] = math.Cos(float64(i) * 0.4)
	}
	x, err := Synthesize(arr, []Dipole{{Pos: truth, Moment: q, Course: course}}, nt, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	us, _, err := SignalSubspace(Covariance(x), 1)
	if err != nil {
		t.Fatal(err)
	}
	grid := BrainGrid(0.08, 0.02)
	serial := Scan(arr, us, grid)

	var parallel *ScanResult
	err = mpi.Run(4, func(c *mpi.Comm) error {
		res, err := ParallelScan(c, arr, us, grid)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			parallel = res
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if parallel == nil || len(parallel.Values) != len(serial.Values) {
		t.Fatal("parallel scan incomplete")
	}
	for i := range serial.Values {
		if math.Abs(serial.Values[i]-parallel.Values[i]) > 1e-12 {
			t.Fatalf("parallel scan diverges at %d", i)
		}
	}
}

func TestDistributedModelSuperlinear(t *testing.T) {
	m := DistributedModel{
		MPP:        machine.CrayT3E600(),
		Vector:     machine.CrayT90(),
		WANLatency: 600 * time.Microsecond,
		WANBps:     400e6,
		Sensors:    148, Signals: 5, GridPoints: 50000, Iterations: 10,
	}
	// Low-volume WAN traffic: the subspace is a few KB.
	if b := m.subspaceBytes(); b > 10000 {
		t.Errorf("subspace payload = %d bytes, should be low volume", b)
	}
	sp := m.SuperlinearSpeedup(64)
	if sp <= 1.05 {
		t.Errorf("distributed speedup = %.2f, want > 1 (the paper's superlinear claim)", sp)
	}
	// The gain must come from the eigendecomposition moving to the
	// vector machine: with a tiny grid (scan-dominated regime gone,
	// eig dominating), the advantage grows.
	small := m
	small.GridPoints = 1000
	if small.SuperlinearSpeedup(64) <= sp {
		t.Error("eig-dominated case should benefit more from the vector machine")
	}
	// Latency sensitivity: a slow WAN erodes the gain.
	slow := m
	slow.WANLatency = 500 * time.Millisecond
	if slow.SuperlinearSpeedup(64) >= sp {
		t.Error("WAN latency should erode the distributed gain")
	}
}

// Scan evaluates the MUSIC metric on all grid points (serially).
func Scan(a *SensorArray, us *linalg.Mat, grid []Vec3) *ScanResult {
	res := &ScanResult{Points: grid, Values: make([]float64, len(grid))}
	for i, p := range grid {
		res.Values[i] = MusicValue(a, us, p)
	}
	return res
}
