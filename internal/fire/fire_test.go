package fire

import (
	"math"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/mri"
	"repro/internal/volume"
)

func phantomVolume() *volume.Volume {
	ph := mri.NewPhantom(24, 24, 12, nil)
	return ph.Anatomy
}

// shifted returns v rigidly translated by (dx, dy, dz) voxels.
func shifted(v *volume.Volume, dx, dy, dz float64) *volume.Volume {
	out := volume.New(v.NX, v.NY, v.NZ)
	new(volume.Sampler).Shift(out, v, dx, dy, dz)
	return out
}

func TestEstimateShiftRecoversKnownMotion(t *testing.T) {
	ref := phantomVolume()
	for _, want := range [][3]float64{
		{1.0, 0, 0},
		{0.5, -0.7, 0.3},
		{-1.2, 0.4, -0.5},
	} {
		cur := shifted(ref, want[0], want[1], want[2])
		_, got, err := MotionCorrect(nil, ref, cur, MotionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if math.Abs(got[i]-want[i]) > 0.08 {
				t.Errorf("shift %v: estimated %v (axis %d off by %.3f)",
					want, got, i, math.Abs(got[i]-want[i]))
			}
		}
	}
}

func TestMotionCorrectRestoresImage(t *testing.T) {
	ref := phantomVolume()
	cur := shifted(ref, 0.8, -0.6, 0.2)
	fixed, d, err := MotionCorrect(nil, ref, cur, MotionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d[0]-0.8) > 0.1 {
		t.Errorf("estimated dx = %v", d[0])
	}
	// Interior voxels should match the reference closely after
	// correction.
	var rms, norm float64
	for z := 3; z < ref.NZ-3; z++ {
		for y := 3; y < ref.NY-3; y++ {
			for x := 3; x < ref.NX-3; x++ {
				diff := float64(fixed.At(x, y, z) - ref.At(x, y, z))
				rms += diff * diff
				norm += float64(ref.At(x, y, z)) * float64(ref.At(x, y, z))
			}
		}
	}
	// Compare against the ideal correction (true shift, same double
	// resampling): the estimator must be nearly as good. Comparing
	// against the raw reference instead would mostly measure the
	// trilinear low-pass loss at the phantom's sharp skull edges.
	ideal := shifted(cur, -0.8, 0.6, -0.2)
	var idealRms float64
	for z := 3; z < ref.NZ-3; z++ {
		for y := 3; y < ref.NY-3; y++ {
			for x := 3; x < ref.NX-3; x++ {
				d := float64(ideal.At(x, y, z) - ref.At(x, y, z))
				idealRms += d * d
			}
		}
	}
	if rms > idealRms*1.1+1e-12 {
		t.Errorf("correction residual %.3e worse than ideal-shift residual %.3e", rms/norm, idealRms/norm)
	}
}

func TestEstimateShiftShapeMismatch(t *testing.T) {
	a := volume.New(4, 4, 4)
	b := volume.New(4, 4, 5)
	if _, _, err := MotionCorrect(nil, a, b, MotionOptions{}); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestEstimateShiftFeaturelessErrors(t *testing.T) {
	a := volume.New(8, 8, 8) // all zeros: no gradients anywhere
	b := volume.New(8, 8, 8)
	if _, _, err := MotionCorrect(nil, a, b, MotionOptions{}); err == nil {
		t.Error("featureless image should error (singular normal equations)")
	}
}

// A volume thinner than its border has no interior to fit: the error
// must say so, naming the axis, instead of blaming the image.
func TestEstimateShiftThinVolumeNamesDimension(t *testing.T) {
	for _, c := range []struct {
		nx, ny, nz, border int
		want               string
	}{
		{24, 24, 4, 0, "NZ = 4 with Border 2"}, // default border
		{6, 24, 12, 3, "NX = 6 with Border 3"},
		{24, 2, 12, 1, "NY = 2 with Border 1"},
	} {
		v := mri.NewPhantom(c.nx, c.ny, c.nz, nil).Anatomy
		_, _, err := MotionCorrect(nil, v, shifted(v, 0.5, 0, 0), MotionOptions{Border: c.border})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%dx%dx%d border %d: error %v, want one naming %q", c.nx, c.ny, c.nz, c.border, err, c.want)
		}
	}
}

// gradient returns central-difference spatial gradients (gx, gy, gz) of
// v at voxel (x, y, z), using one-sided differences at the boundary.
func gradient(v *volume.Volume, x, y, z int) (gx, gy, gz float64) {
	clamp := func(i, n int) int { return min(max(i, 0), n-1) }
	sample := func(a, b float32, h float64) float64 { return float64(a-b) / h }
	xm, xp := clamp(x-1, v.NX), clamp(x+1, v.NX)
	ym, yp := clamp(y-1, v.NY), clamp(y+1, v.NY)
	zm, zp := clamp(z-1, v.NZ), clamp(z+1, v.NZ)
	gx = sample(v.At(xp, y, z), v.At(xm, y, z), float64(xp-xm))
	gy = sample(v.At(x, yp, z), v.At(x, ym, z), float64(yp-ym))
	gz = sample(v.At(x, y, zp), v.At(x, y, zm), float64(zp-zm))
	if xp == xm {
		gx = 0
	}
	if yp == ym {
		gy = 0
	}
	if zp == zm {
		gz = 0
	}
	return gx, gy, gz
}

func TestGradientOfLinearField(t *testing.T) {
	v := volume.New(6, 6, 6)
	for z := 0; z < 6; z++ {
		for y := 0; y < 6; y++ {
			for x := 0; x < 6; x++ {
				v.Set(x, y, z, float32(3*x+5*y-2*z))
			}
		}
	}
	gx, gy, gz := gradient(v, 3, 3, 3)
	if gx != 3 || gy != 5 || gz != -2 {
		t.Errorf("gradient = (%v,%v,%v), want (3,5,-2)", gx, gy, gz)
	}
	// Boundary gradients use one-sided differences but stay exact for
	// linear fields.
	gx, gy, gz = gradient(v, 0, 0, 5)
	if gx != 3 || gy != 5 || gz != -2 {
		t.Errorf("boundary gradient = (%v,%v,%v)", gx, gy, gz)
	}
}

// referenceEstimateShift is the motion fit as it was before the
// gradients were read by stride: one gradient call (six clamps, seven
// Idx) per interior voxel per iteration. MotionCorrect's estimate must
// agree with it to the last bit.
func referenceEstimateShift(ref, cur *volume.Volume, opts MotionOptions) ([3]float64, error) {
	opts.fill()
	var d [3]float64
	for iter := 0; iter < opts.MaxIter; iter++ {
		moved := shifted(cur, -d[0], -d[1], -d[2])
		var jtj [3][3]float64
		var jtr [3]float64
		b := opts.Border
		for z := b; z < ref.NZ-b; z++ {
			for y := b; y < ref.NY-b; y++ {
				for x := b; x < ref.NX-b; x++ {
					gx, gy, gz := gradient(moved, x, y, z)
					r := float64(ref.At(x, y, z) - moved.At(x, y, z))
					g := [3]float64{gx, gy, gz}
					for i := 0; i < 3; i++ {
						for j := 0; j < 3; j++ {
							jtj[i][j] += g[i] * g[j]
						}
						jtr[i] += g[i] * r
					}
				}
			}
		}
		a := linalg.NewMat(3, 3)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				a.Set(i, j, jtj[i][j])
			}
		}
		delta, err := linalg.Solve(a, jtr[:])
		if err != nil {
			return d, err
		}
		d[0] += delta[0]
		d[1] += delta[1]
		d[2] += delta[2]
		if math.Sqrt(delta[0]*delta[0]+delta[1]*delta[1]+delta[2]*delta[2]) < opts.Tol {
			break
		}
	}
	return d, nil
}

func TestEstimateShiftEqualsGradientLoopBitForBit(t *testing.T) {
	ref := phantomVolume()
	var fixed *volume.Volume // MotionCorrect's target, reused across the cases
	for _, c := range []struct {
		shift  [3]float64
		border int
	}{
		{[3]float64{1.0, 0, 0}, 0},
		{[3]float64{0.5, -0.7, 0.3}, 0},
		{[3]float64{-1.2, 0.4, -0.5}, 0},
		{[3]float64{0.5, -0.7, 0.3}, 1}, // the thinnest border: neighbors reach the faces
	} {
		cur := shifted(ref, c.shift[0], c.shift[1], c.shift[2])
		want, err := referenceEstimateShift(ref, cur, MotionOptions{Border: c.border})
		if err != nil {
			t.Fatal(err)
		}
		// MotionCorrect fits in its target volume, then resamples into
		// it: the reference's estimate, and the image a shift by it gives.
		var got [3]float64
		fixed, got, err = MotionCorrect(fixed, ref, cur, MotionOptions{Border: c.border})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("shift %v border %d axis %d: %v, Gradient loop %v", c.shift, c.border, i, got[i], want[i])
			}
		}
		ideal := shifted(cur, -want[0], -want[1], -want[2])
		for i := range ideal.Data {
			if math.Float32bits(fixed.Data[i]) != math.Float32bits(ideal.Data[i]) {
				t.Fatalf("shift %v border %d: corrected voxel %d = %v, Shift %v", c.shift, c.border, i, fixed.Data[i], ideal.Data[i])
			}
		}
	}
	cur := shifted(ref, 0, 0, 0)
	if _, _, err := MotionCorrect(volume.New(2, 2, 2), ref, cur, MotionOptions{}); err == nil {
		t.Error("MotionCorrect wrote into a target of another shape")
	}
	if _, _, err := MotionCorrect(cur, ref, cur, MotionOptions{}); err == nil {
		t.Error("MotionCorrect wrote over its own input")
	}
}

func TestCorrelatorFindsActivation(t *testing.T) {
	act := mri.Activation{CX: 12, CY: 12, CZ: 6, Radius: 3, Amplitude: 0.05, HRF: mri.DefaultHRF}
	ph := mri.NewPhantom(24, 24, 12, []mri.Activation{act})
	cfg := mri.ScanConfig{NX: 24, NY: 24, NZ: 12, TR: 2, NScans: 48, NoiseStd: 2, Seed: 3}
	sc := mri.NewScanner(ph, cfg)
	ref := sc.Reference(0)
	c := NewCorrelator(ref, 24, 24, 12)
	for {
		v := sc.Next()
		if v == nil {
			break
		}
		if err := c.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.Map()
	if err != nil {
		t.Fatal(err)
	}
	if r := m.At(12, 12, 6); r < 0.8 {
		t.Errorf("activation center correlation = %.3f, want > 0.8", r)
	}
	if r := math.Abs(float64(m.At(3, 3, 2))); r > 0.6 {
		t.Errorf("background correlation = %.3f, want low", r)
	}
	// Correlations bounded in [-1, 1].
	for i, v := range m.Data {
		if v < -1 || v > 1 {
			t.Fatalf("correlation out of range at %d: %v", i, v)
		}
	}
}

func TestCorrelatorValidation(t *testing.T) {
	c := NewCorrelator(make([]float64, 4), 4, 4, 4)
	if _, err := c.Map(); err == nil {
		t.Error("Map with too few scans accepted")
	}
	if err := c.Add(volume.New(5, 4, 4)); err == nil {
		t.Error("wrong shape accepted")
	}
	v := volume.New(4, 4, 4)
	for i := 0; i < 4; i++ {
		if err := c.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Add(v); err == nil {
		t.Error("scan beyond reference length accepted")
	}
}

func TestCorrelateSeriesMatchesIncremental(t *testing.T) {
	act := mri.Activation{CX: 8, CY: 8, CZ: 4, Radius: 2, Amplitude: 0.04, HRF: mri.DefaultHRF}
	ph := mri.NewPhantom(16, 16, 8, []mri.Activation{act})
	cfg := mri.ScanConfig{NX: 16, NY: 16, NZ: 8, TR: 2, NScans: 32, NoiseStd: 1, Seed: 9}
	sc := mri.NewScanner(ph, cfg)
	series := scanSeries(sc)
	ref := sc.Reference(0)
	batch, err := correlateSeries(series, ref)
	if err != nil {
		t.Fatal(err)
	}
	// The incremental side folds each scan as a second scanner hands it
	// over, in the one volume that scanner overwrites.
	sc = mri.NewScanner(ph, cfg)
	inc := NewCorrelator(ref, 16, 16, 8)
	for v := sc.Next(); v != nil; v = sc.Next() {
		if err := inc.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := inc.Map()
	for i := range m.Data {
		if m.Data[i] != batch.Data[i] {
			t.Fatalf("incremental and batch maps differ at %d", i)
		}
	}
}

func TestROITimeCourse(t *testing.T) {
	series := []*volume.Volume{volume.New(2, 2, 1), volume.New(2, 2, 1)}
	series[0].Data = []float32{1, 2, 3, 4}
	series[1].Data = []float32{5, 6, 7, 8}
	roi := []bool{true, false, false, true}
	tc, err := roiTimeCourse(series, roi)
	if err != nil {
		t.Fatal(err)
	}
	if tc[0] != 2.5 || tc[1] != 6.5 {
		t.Errorf("time course = %v", tc)
	}
	if _, err := roiTimeCourse(series, []bool{true}); err == nil {
		t.Error("bad mask length accepted")
	}
	if _, err := roiTimeCourse(series, make([]bool, 4)); err == nil {
		t.Error("empty ROI accepted")
	}
	if _, err := roiTimeCourse(nil, roi); err == nil {
		t.Error("empty series accepted")
	}
}
