package fire

import (
	"math"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/mri"
	"repro/internal/volume"
)

func TestMedianFilterRemovesImpulse(t *testing.T) {
	v := volume.New(8, 8, 8)
	v.Fill(100)
	v.Set(4, 4, 4, 10000) // hot voxel
	out := MedianFilter3D(v, 1)
	if out.At(4, 4, 4) != 100 {
		t.Errorf("impulse survived median filter: %v", out.At(4, 4, 4))
	}
}

func TestMedianFilterIdempotentOnConstant(t *testing.T) {
	v := volume.New(6, 6, 6)
	v.Fill(42)
	out := MedianFilter3D(v, 1)
	for i, x := range out.Data {
		if x != 42 {
			t.Fatalf("constant field changed at %d: %v", i, x)
		}
	}
}

func TestMedianFilterPreservesStep(t *testing.T) {
	// A median filter preserves edges better than averaging: voxels
	// well inside each half keep their value exactly.
	v := volume.New(8, 8, 8)
	for z := 0; z < 8; z++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				if x < 4 {
					v.Set(x, y, z, 10)
				} else {
					v.Set(x, y, z, 20)
				}
			}
		}
	}
	out := MedianFilter3D(v, 1)
	if out.At(1, 4, 4) != 10 || out.At(6, 4, 4) != 20 {
		t.Error("median filter destroyed a clean step edge")
	}
}

func TestMedianFilterZeroRadiusClones(t *testing.T) {
	v := volume.New(4, 4, 4)
	v.Set(1, 1, 1, 5)
	out := MedianFilter3D(v, 0)
	if out.At(1, 1, 1) != 5 {
		t.Error("r=0 should copy")
	}
	out.Set(1, 1, 1, 9)
	if v.At(1, 1, 1) != 5 {
		t.Error("r=0 result aliases input")
	}
}

func TestAverageFilterSmooths(t *testing.T) {
	v := volume.New(8, 8, 8)
	v.Set(4, 4, 4, 27)
	out := AverageFilter3D(v, 1)
	// 27 spread over a 27-voxel window -> 1 at center.
	if math.Abs(float64(out.At(4, 4, 4))-1) > 1e-6 {
		t.Errorf("center = %v, want 1", out.At(4, 4, 4))
	}
	if math.Abs(float64(out.At(3, 4, 4))-1) > 1e-6 {
		t.Errorf("neighbor = %v, want 1", out.At(3, 4, 4))
	}
	if out.At(0, 0, 0) != 0 {
		t.Errorf("far voxel = %v, want 0", out.At(0, 0, 0))
	}
}

func TestAverageFilterPreservesMeanOnConstant(t *testing.T) {
	v := volume.New(5, 5, 5)
	v.Fill(7)
	out := AverageFilter3D(v, 2)
	for _, x := range out.Data {
		if math.Abs(float64(x)-7) > 1e-5 {
			t.Fatalf("constant not preserved: %v", x)
		}
	}
}

func phantomVolume() *volume.Volume {
	ph := mri.NewPhantom(24, 24, 12, nil)
	return ph.Anatomy
}

func TestEstimateShiftRecoversKnownMotion(t *testing.T) {
	ref := phantomVolume()
	for _, want := range [][3]float64{
		{1.0, 0, 0},
		{0.5, -0.7, 0.3},
		{-1.2, 0.4, -0.5},
	} {
		cur := ref.Shift(want[0], want[1], want[2])
		got, err := EstimateShift(ref, cur, MotionOptions{})
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
	cur := ref.Shift(0.8, -0.6, 0.2)
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
	ideal := cur.Shift(-0.8, 0.6, -0.2)
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
	if _, err := EstimateShift(a, b, MotionOptions{}); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestEstimateShiftFeaturelessErrors(t *testing.T) {
	a := volume.New(8, 8, 8) // all zeros: no gradients anywhere
	b := volume.New(8, 8, 8)
	if _, err := EstimateShift(a, b, MotionOptions{}); err == nil {
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
		_, err := EstimateShift(v, v.Shift(0.5, 0, 0), MotionOptions{Border: c.border})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%dx%dx%d border %d: error %v, want one naming %q", c.nx, c.ny, c.nz, c.border, err, c.want)
		}
	}
}

// referenceEstimateShift is EstimateShift as it was before the
// gradients were read by stride: one volume.Gradient call (six clamps,
// seven Idx) per interior voxel per iteration. EstimateShift must agree
// with it to the last bit.
func referenceEstimateShift(ref, cur *volume.Volume, opts MotionOptions) ([3]float64, error) {
	opts.fill()
	var d [3]float64
	for iter := 0; iter < opts.MaxIter; iter++ {
		moved := cur.Shift(-d[0], -d[1], -d[2])
		var jtj [3][3]float64
		var jtr [3]float64
		b := opts.Border
		for z := b; z < ref.NZ-b; z++ {
			for y := b; y < ref.NY-b; y++ {
				for x := b; x < ref.NX-b; x++ {
					gx, gy, gz := moved.Gradient(x, y, z)
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
		cur := ref.Shift(c.shift[0], c.shift[1], c.shift[2])
		got, err := EstimateShift(ref, cur, MotionOptions{Border: c.border})
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceEstimateShift(ref, cur, MotionOptions{Border: c.border})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("shift %v border %d axis %d: %v, Gradient loop %v", c.shift, c.border, i, got[i], want[i])
			}
		}
		// MotionCorrect fits in its target volume, then resamples into
		// it: the same estimate, and the image Shift gives for it.
		var d [3]float64
		fixed, d, err = MotionCorrect(fixed, ref, cur, MotionOptions{Border: c.border})
		if err != nil {
			t.Fatal(err)
		}
		if d != want {
			t.Errorf("shift %v border %d: MotionCorrect estimate %v, Gradient loop %v", c.shift, c.border, d, want)
		}
		ideal := cur.Shift(-want[0], -want[1], -want[2])
		for i := range ideal.Data {
			if math.Float32bits(fixed.Data[i]) != math.Float32bits(ideal.Data[i]) {
				t.Fatalf("shift %v border %d: corrected voxel %d = %v, Shift %v", c.shift, c.border, i, fixed.Data[i], ideal.Data[i])
			}
		}
	}
	if _, _, err := MotionCorrect(volume.New(2, 2, 2), ref, ref.Clone(), MotionOptions{}); err == nil {
		t.Error("MotionCorrect wrote into a target of another shape")
	}
	cur := ref.Clone()
	if _, _, err := MotionCorrect(cur, ref, cur, MotionOptions{}); err == nil {
		t.Error("MotionCorrect wrote over its own input")
	}
}

func TestDetrendRemovesLinearDrift(t *testing.T) {
	n := 40
	d, err := NewDetrender(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = 100 + 0.5*float64(i) // baseline + drift
	}
	out, err := d.Apply(y)
	if err != nil {
		t.Fatal(err)
	}
	// Drift gone, baseline (mean) retained.
	var mean float64
	for _, v := range out {
		mean += v
	}
	mean /= float64(n)
	if math.Abs(mean-100-0.5*float64(n-1)/2) > 1e-9 {
		t.Errorf("mean after detrend = %v", mean)
	}
	for i := 1; i < n; i++ {
		if math.Abs(out[i]-out[0]) > 1e-9 {
			t.Fatalf("residual drift at %d: %v vs %v", i, out[i], out[0])
		}
	}
}

func TestDetrendPreservesSignal(t *testing.T) {
	// A zero-mean oscillation orthogonal-ish to the drift terms
	// should survive detrending nearly unchanged.
	n := 64
	d, err := NewDetrender(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, n)
	sig := make([]float64, n)
	for i := range y {
		sig[i] = math.Sin(2 * math.Pi * float64(i) / 8)
		y[i] = sig[i] + 3 + 0.2*float64(i)
	}
	out, _ := d.Apply(y)
	// Compare detrended signal shape against the pure oscillation.
	var dot, ss float64
	for i := range out {
		c := out[i] - 3 - 0.2*float64(n-1)/2 // remove retained baseline
		dot += c * sig[i]
		ss += sig[i] * sig[i]
	}
	if dot/ss < 0.95 {
		t.Errorf("signal attenuated by detrend: projection %.3f", dot/ss)
	}
}

func TestDetrenderValidation(t *testing.T) {
	if _, err := NewDetrender(3, 2); err == nil {
		t.Error("too-short series accepted")
	}
	if _, err := NewDetrender(10, 0); err == nil {
		t.Error("order 0 accepted")
	}
	d, _ := NewDetrender(10, 1)
	if _, err := d.Apply(make([]float64, 5)); err == nil {
		t.Error("wrong-length series accepted")
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

func TestClipMap(t *testing.T) {
	r := &Result{Corr: volume.New(2, 1, 1)}
	r.Corr.Data[0] = 0.7
	r.Corr.Data[1] = -0.8
	m := r.ClipMap(0.75)
	if m[0] || !m[1] {
		t.Errorf("clip map = %v", m)
	}
}
