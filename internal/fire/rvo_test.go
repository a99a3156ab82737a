package fire

import (
	"math"
	"testing"

	"repro/internal/mri"
	"repro/internal/volume"
)

// rvoSeries builds a small synthetic series with a single activation of
// known hemodynamics.
func rvoSeries(t *testing.T, h mri.HRF) ([]*volume.Volume, []float64, float64, [3]int) {
	t.Helper()
	act := mri.Activation{CX: 6, CY: 6, CZ: 3, Radius: 2.5, Amplitude: 0.08, HRF: h}
	ph := mri.NewPhantom(12, 12, 6, []mri.Activation{act})
	tr := 2.0
	nScans := 40
	stim := mri.BlockStimulus(nScans, 8)
	cfg := mri.ScanConfig{NX: 12, NY: 12, NZ: 6, TR: tr, NScans: nScans,
		Stimulus: stim, NoiseStd: 0.5, Seed: 17}
	sc := mri.NewScanner(ph, cfg)
	return scanSeries(sc), stim, tr, [3]int{6, 6, 3}
}

func TestRVORecoversDelay(t *testing.T) {
	truth := mri.HRF{Delay: 8.0, Dispersion: 1.2}
	series, stim, tr, center := rvoSeries(t, truth)
	res, err := RVO(series, stim, tr, DefaultRVOGrid())
	if err != nil {
		t.Fatal(err)
	}
	cx, cy, cz := center[0], center[1], center[2]
	if r := res.Corr.At(cx, cy, cz); r < 0.8 {
		t.Fatalf("center correlation after RVO = %.3f", r)
	}
	d := float64(res.Delay.At(cx, cy, cz))
	if math.Abs(d-truth.Delay) > 1.5 {
		t.Errorf("fitted delay = %.2f, want %.1f +- 1.5", d, truth.Delay)
	}
	if res.Evaluated == 0 {
		t.Error("no grid evaluations counted")
	}
}

func TestRVOImprovesOverFixedReference(t *testing.T) {
	// Signal with a late HRF: a fixed default reference correlates
	// worse than the RVO-optimized one. This is the sensitivity
	// improvement the paper attributes to RVO.
	truth := mri.HRF{Delay: 11.0, Dispersion: 2.2}
	series, stim, tr, center := rvoSeries(t, truth)
	fixedRef := mri.DefaultHRF.Convolve(stim[:len(series)], tr)
	fixed, err := correlateSeries(series, fixedRef)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RVO(series, stim, tr, DefaultRVOGrid())
	if err != nil {
		t.Fatal(err)
	}
	cx, cy, cz := center[0], center[1], center[2]
	rFixed := float64(fixed.At(cx, cy, cz))
	rOpt := float64(res.Corr.At(cx, cy, cz))
	if rOpt <= rFixed {
		t.Errorf("RVO (%.3f) should beat the fixed default reference (%.3f)", rOpt, rFixed)
	}
}

func TestCoarseGridWithRefinementApproachesFullRaster(t *testing.T) {
	truth := mri.HRF{Delay: 7.5, Dispersion: 1.5}
	series, stim, tr, center := rvoSeries(t, truth)
	full, err := RVO(series, stim, tr, DefaultRVOGrid())
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := RVO(series, stim, tr, CoarseRVOGrid())
	if err != nil {
		t.Fatal(err)
	}
	cx, cy, cz := center[0], center[1], center[2]
	rFull := float64(full.Corr.At(cx, cy, cz))
	rCoarse := float64(coarse.Corr.At(cx, cy, cz))
	if rCoarse < rFull-0.02 {
		t.Errorf("coarse+refine correlation %.4f much worse than full raster %.4f", rCoarse, rFull)
	}
	// And it does far less raster work: 30 vs 432 grid points.
	if coarse.Evaluated >= full.Evaluated/5 {
		t.Errorf("coarse grid evaluated %d points vs full %d — too many", coarse.Evaluated, full.Evaluated)
	}
}

func TestRVOValidation(t *testing.T) {
	series, stim, tr, _ := rvoSeries(t, mri.DefaultHRF)
	if _, err := RVO(series[:2], stim, tr, DefaultRVOGrid()); err == nil {
		t.Error("too-short series accepted")
	}
	if _, err := RVO(series, stim, tr, RVOOptions{}); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := RVO(series, stim[:3], tr, DefaultRVOGrid()); err == nil {
		t.Error("short stimulus accepted")
	}
	bad := append([]*volume.Volume{}, series...)
	bad[1] = volume.New(3, 3, 3)
	if _, err := RVO(bad, stim, tr, DefaultRVOGrid()); err == nil {
		t.Error("inconsistent shapes accepted")
	}
}

func TestRVODetrendingImprovesDriftedData(t *testing.T) {
	// Strong baseline drift contaminates the correlation; enabling
	// FIRE's detrending module inside RVO must recover it.
	act := mri.Activation{CX: 6, CY: 6, CZ: 3, Radius: 2.5, Amplitude: 0.06, HRF: mri.DefaultHRF}
	ph := mri.NewPhantom(12, 12, 6, []mri.Activation{act})
	tr := 2.0
	nScans := 40
	stim := mri.BlockStimulus(nScans, 8)
	cfg := mri.ScanConfig{NX: 12, NY: 12, NZ: 6, TR: tr, NScans: nScans,
		Stimulus: stim, NoiseStd: 0.5, DriftPerScan: 3.0, Seed: 23}
	sc := mri.NewScanner(ph, cfg)
	series := scanSeries(sc)
	plain := DefaultRVOGrid()
	res, err := RVO(series, stim, tr, plain)
	if err != nil {
		t.Fatal(err)
	}
	detrended := DefaultRVOGrid()
	detrended.DetrendOrder = 1
	resDet, err := RVO(series, stim, tr, detrended)
	if err != nil {
		t.Fatal(err)
	}
	rPlain := float64(res.Corr.At(6, 6, 3))
	rDet := float64(resDet.Corr.At(6, 6, 3))
	if rDet <= rPlain {
		t.Errorf("detrended correlation %.3f should beat plain %.3f on drifted data", rDet, rPlain)
	}
	if rDet < 0.75 {
		t.Errorf("detrended correlation only %.3f", rDet)
	}
	// Parallel path agrees with the serial path when detrending.
	par, err := ParallelRVO(series, stim, tr, detrended, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resDet.Corr.Data {
		if par.Corr.Data[i] != resDet.Corr.Data[i] {
			t.Fatalf("parallel detrended RVO differs at %d", i)
		}
	}
}

func TestLinspace(t *testing.T) {
	v := linspace(1, 3, 5)
	want := []float64{1, 1.5, 2, 2.5, 3}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Errorf("linspace[%d] = %v", i, v[i])
		}
	}
	if one := linspace(2, 9, 1); len(one) != 1 || one[0] != 2 {
		t.Errorf("linspace n=1 = %v", one)
	}
}
