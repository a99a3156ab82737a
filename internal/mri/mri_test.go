package mri

import (
	"math"
	"testing"

	"repro/internal/volume"
)

func TestHRFPeaksAtDelay(t *testing.T) {
	h := HRF{Delay: 6, Dispersion: 1}
	peak := h.Eval(6)
	for _, tt := range []float64{1, 3, 5, 7, 9, 15} {
		if h.Eval(tt) > peak {
			t.Errorf("HRF(%v) = %v exceeds peak at delay %v", tt, h.Eval(tt), peak)
		}
	}
	if h.Eval(0) != 0 || h.Eval(-1) != 0 {
		t.Error("HRF should vanish at t <= 0")
	}
	if math.Abs(peak-1) > 1e-12 {
		t.Errorf("peak value = %v, want 1 (normalized form)", peak)
	}
}

func TestHRFDegenerateParams(t *testing.T) {
	if (HRF{Delay: 0, Dispersion: 1}).Eval(1) != 0 {
		t.Error("zero delay should yield 0")
	}
	if (HRF{Delay: 5, Dispersion: 0}).Eval(1) != 0 {
		t.Error("zero dispersion should yield 0")
	}
}

func TestConvolveNormalized(t *testing.T) {
	stim := BlockStimulus(64, 8)
	ref := DefaultHRF.Convolve(stim, 2.0)
	if len(ref) != 64 {
		t.Fatalf("len = %d", len(ref))
	}
	var mean, ss float64
	for _, v := range ref {
		mean += v
	}
	mean /= 64
	for _, v := range ref {
		ss += (v - mean) * (v - mean)
	}
	if math.Abs(mean) > 1e-10 {
		t.Errorf("reference mean = %g, want 0", mean)
	}
	if math.Abs(ss/64-1) > 1e-10 {
		t.Errorf("reference variance = %g, want 1", ss/64)
	}
}

func TestConvolveConstantStimulusIsZero(t *testing.T) {
	stim := make([]float64, 32) // all rest
	ref := DefaultHRF.Convolve(stim, 2.0)
	for _, v := range ref {
		if v != 0 {
			t.Fatal("constant stimulus should give a zero reference")
		}
	}
}

func TestConvolveDelayShiftsResponse(t *testing.T) {
	stim := BlockStimulus(64, 8)
	early := HRF{Delay: 4, Dispersion: 1}.Convolve(stim, 2.0)
	late := HRF{Delay: 10, Dispersion: 1}.Convolve(stim, 2.0)
	// Cross-correlation at zero lag between early and late responses
	// should be below the early-early autocorrelation.
	dot := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	if dot(early, late) >= dot(early, early)-1 {
		t.Errorf("late HRF response should decorrelate from early one: %v vs %v",
			dot(early, late), dot(early, early))
	}
}

func TestBlockStimulus(t *testing.T) {
	s := BlockStimulus(32, 8)
	for i := 0; i < 8; i++ {
		if s[i] != 0 {
			t.Fatal("first block should be rest")
		}
	}
	for i := 8; i < 16; i++ {
		if s[i] != 1 {
			t.Fatal("second block should be task")
		}
	}
}

func TestPhantomStructure(t *testing.T) {
	ph := NewPhantom(64, 64, 16, nil)
	if ph.Anatomy.NX != 64 || ph.Anatomy.NZ != 16 {
		t.Fatal("dims")
	}
	// Center should be brain, corner should be air.
	if !ph.BrainMask[ph.Anatomy.Idx(32, 32, 8)] {
		t.Error("center voxel not brain")
	}
	if ph.BrainMask[ph.Anatomy.Idx(0, 0, 0)] {
		t.Error("corner voxel marked brain")
	}
	if ph.Anatomy.At(0, 0, 0) != 0 {
		t.Error("air should have zero signal")
	}
	if ph.Anatomy.At(32, 32, 8) < 500 {
		t.Error("brain should have strong signal")
	}
	// Brain occupies a plausible interior fraction.
	n := 0
	for _, b := range ph.BrainMask {
		if b {
			n++
		}
	}
	frac := float64(n) / float64(len(ph.BrainMask))
	if frac < 0.1 || frac > 0.6 {
		t.Errorf("brain fraction = %.2f", frac)
	}
}

func TestActivationWeight(t *testing.T) {
	a := Activation{CX: 10, CY: 10, CZ: 5, Radius: 3, Amplitude: 0.05, HRF: DefaultHRF}
	if w := a.ActivationWeight(10, 10, 5); math.Abs(w-1) > 1e-12 {
		t.Errorf("center weight = %v", w)
	}
	if w := a.ActivationWeight(14, 10, 5); w != 0 {
		t.Errorf("outside weight = %v", w)
	}
	mid := a.ActivationWeight(11, 10, 5)
	if mid <= 0 || mid >= 1 {
		t.Errorf("interior weight = %v", mid)
	}
}

func TestScannerSeriesActivationVisible(t *testing.T) {
	act := Activation{CX: 32, CY: 32, CZ: 8, Radius: 4, Amplitude: 0.05, HRF: DefaultHRF}
	ph := NewPhantom(64, 64, 16, []Activation{act})
	cfg := ScanConfig{NX: 64, NY: 64, NZ: 16, TR: 2, NScans: 48, NoiseStd: 2, Seed: 11}
	sc := NewScanner(ph, cfg)
	var series []float32
	for {
		v := sc.Next()
		if v == nil {
			break
		}
		series = append(series, v.At(32, 32, 8))
	}
	if len(series) != 48 {
		t.Fatalf("%d scans", len(series))
	}
	if sc.ScansDone() != 48 {
		t.Errorf("ScansDone = %d", sc.ScansDone())
	}
	// Correlate the voxel series with the scanner's own reference:
	// must be strongly positive.
	ref := sc.Reference(0)
	var mean float64
	for _, v := range series {
		mean += float64(v)
	}
	mean /= float64(len(series))
	var num, den float64
	for i, v := range series {
		num += (float64(v) - mean) * ref[i]
		den += (float64(v) - mean) * (float64(v) - mean)
	}
	r := num / math.Sqrt(den*float64(len(ref)))
	if r < 0.8 {
		t.Errorf("activated voxel correlation = %.3f, want > 0.8", r)
	}
}

func TestScannerQuietVoxelUncorrelated(t *testing.T) {
	act := Activation{CX: 16, CY: 16, CZ: 4, Radius: 3, Amplitude: 0.05, HRF: DefaultHRF}
	ph := NewPhantom(64, 64, 16, []Activation{act})
	cfg := ScanConfig{NX: 64, NY: 64, NZ: 16, TR: 2, NScans: 48, NoiseStd: 2, Seed: 5}
	sc := NewScanner(ph, cfg)
	var series []float64
	for {
		v := sc.Next()
		if v == nil {
			break
		}
		series = append(series, float64(v.At(45, 45, 12))) // far from activation
	}
	ref := sc.Reference(0)
	var mean float64
	for _, v := range series {
		mean += v
	}
	mean /= float64(len(series))
	var num, den float64
	for i, v := range series {
		num += (v - mean) * ref[i]
		den += (v - mean) * (v - mean)
	}
	r := num / math.Sqrt(den*float64(len(ref)))
	if math.Abs(r) > 0.5 {
		t.Errorf("quiet voxel correlation = %.3f, want ~0", r)
	}
}

func TestScannerMotionApplied(t *testing.T) {
	ph := NewPhantom(32, 32, 8, nil)
	motion := make([]Shift, 2)
	motion[1] = Shift{DX: 3, DY: 0, DZ: 0}
	cfg := ScanConfig{NX: 32, NY: 32, NZ: 8, TR: 2, NScans: 2, Motion: motion, Seed: 1}
	series := scanSeries(NewScanner(ph, cfg))
	v0, v1 := series[0], series[1]
	// The shifted frame differs from the first mostly by translation:
	// shifting v1 back should approximately restore v0.
	back := volume.New(v1.NX, v1.NY, v1.NZ)
	new(volume.Sampler).Shift(back, v1, -3, 0, 0)
	var diff, ref float64
	for z := 1; z < 7; z++ {
		for y := 2; y < 30; y++ {
			for x := 4; x < 28; x++ { // interior, away from clamped edges
				d := float64(back.At(x, y, z) - v0.At(x, y, z))
				diff += d * d
				ref += float64(v0.At(x, y, z)) * float64(v0.At(x, y, z))
			}
		}
	}
	if diff/ref > 1e-3 {
		t.Errorf("relative restore error %.2e, motion not a clean shift", diff/ref)
	}
}

func TestScannerExhaustion(t *testing.T) {
	ph := NewPhantom(16, 16, 4, nil)
	sc := NewScanner(ph, ScanConfig{NX: 16, NY: 16, NZ: 4, TR: 2, NScans: 1})
	if sc.Next() == nil {
		t.Fatal("first scan nil")
	}
	if sc.Next() != nil {
		t.Fatal("scanner did not stop after NScans")
	}
}

func TestScannerOwnsItsVolumeAndAllocatesNothingPerScan(t *testing.T) {
	// Scan 0 moves, so the first call sizes everything; after it, moved
	// and unmoved scans alike come back in the same volume and allocate
	// nothing.
	act := Activation{CX: 12, CY: 12, CZ: 4, Radius: 3, Amplitude: 0.05, HRF: DefaultHRF}
	ph := NewPhantom(24, 24, 8, []Activation{act})
	const scans = 40
	motion := make([]Shift, scans)
	for i := 0; i < scans; i += 3 {
		motion[i] = Shift{DX: 0.6, DY: -0.3, DZ: 0.2}
	}
	sc := NewScanner(ph, ScanConfig{NX: 24, NY: 24, NZ: 8, TR: 2, NScans: scans,
		NoiseStd: 2, DriftPerScan: 0.4, Motion: motion, Seed: 3})
	first := sc.Next()
	allocs := testing.AllocsPerRun(scans-2, func() {
		if v := sc.Next(); v != first {
			t.Fatalf("scan %d returned a different volume", sc.ScansDone()-1)
		}
	})
	if allocs != 0 {
		t.Errorf("Next allocates %.1f times per scan after the first, want 0", allocs)
	}
	if sc.ScansDone() != scans {
		t.Fatalf("%d scans taken, want %d", sc.ScansDone(), scans)
	}
	if sc.Next() != nil {
		t.Error("scanner did not stop after NScans")
	}
	// NextROI, on a scanner of its own, allocates nothing either: its
	// first scan moves and sizes the same buffers through Next.
	roi := NewScanner(ph, sc.Cfg)
	voxels := []int{0, 100, 2000, ph.Anatomy.Voxels() - 1}
	dst := make([]float32, len(voxels))
	roi.NextROI(voxels, dst)
	allocs = testing.AllocsPerRun(scans-2, func() {
		if !roi.NextROI(voxels, dst) {
			t.Fatalf("NextROI stopped after %d scans", roi.ScansDone())
		}
	})
	if allocs != 0 {
		t.Errorf("NextROI allocates %.1f times per scan after the first, want 0", allocs)
	}
	if roi.ScansDone() != scans || roi.NextROI(voxels, dst) {
		t.Errorf("NextROI took %d scans and did not stop after NScans", roi.ScansDone())
	}
}

func TestScannerNextROIEqualsNext(t *testing.T) {
	acts := []Activation{
		{CX: 12, CY: 14, CZ: 5, Radius: 5, Amplitude: 0.04, HRF: DefaultHRF},
		{CX: 16, CY: 14, CZ: 6, Radius: 4.5, Amplitude: 0.03, HRF: HRF{Delay: 5, Dispersion: 1.2}},
		{CX: 16, CY: 18, CZ: 8, Radius: 2, Amplitude: 0.05, HRF: DefaultHRF},
	}
	ph := NewPhantom(32, 32, 10, acts)
	for i, x := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		ph.Anatomy.Set(12+i, 14, 5, x) // brain, activated
		ph.Anatomy.Set(1+i, 1, 0, x)   // air
	}
	last := ph.Anatomy.Voxels() - 1
	// The voxel lists a scan is asked for, in turn: none, the first and
	// the last, the voxels two sites modulate (as a correlation map's ROI
	// would be), a sparse grid, and all of them.
	var sites, grid, all []int
	for i := 0; i <= last; i++ {
		x, y, z := i%32, i/32%32, i/(32*32)
		if acts[0].ActivationWeight(x, y, z) > 0 || acts[2].ActivationWeight(x, y, z) > 0 {
			sites = append(sites, i)
		}
		if i%7 == 3 {
			grid = append(grid, i)
		}
		all = append(all, i)
	}
	lists := [][]int{nil, {0, last}, sites, grid, all}
	// Scans 1 and 3 move; scan 6 is the first list again, past the
	// motion list.
	motion := []Shift{{}, {DX: 0.4}, {}, {DY: -1.1, DZ: 0.3}, {}, {}}
	dst := make([]float32, len(all))
	for _, cfg := range []ScanConfig{
		{NX: 32, NY: 32, NZ: 10, TR: 2, NScans: 11, NoiseStd: 4, DriftPerScan: 0.5, Seed: 21, Motion: motion},
		{NX: 32, NY: 32, NZ: 10, TR: 2, NScans: 6, Seed: 5}, // no noise, no drift
	} {
		full, roi := NewScanner(ph, cfg), NewScanner(ph, cfg)
		for scan := 0; ; scan++ {
			voxels := lists[scan%len(lists)]
			v, ok := full.Next(), roi.NextROI(voxels, dst)
			if ok != (v != nil) {
				t.Fatalf("seed %d scan %d: NextROI reports %v, Next gave a scan: %v", cfg.Seed, scan, ok, v != nil)
			}
			if !ok {
				break
			}
			for k, i := range voxels {
				if math.Float32bits(dst[k]) != math.Float32bits(v.Data[i]) {
					t.Fatalf("seed %d scan %d voxel %d: NextROI %v, Next %v", cfg.Seed, scan, i, dst[k], v.Data[i])
				}
			}
		}
	}
}
