package fire

import (
	"math"
	"testing"
)

// Table 1 is the reproduction target: the calibrated model must land
// within tolerance of every printed value. Filter entries are printed
// with only two decimals (quantization up to 0.005), so they get an
// absolute floor on the tolerance.
func TestModelReproducesTable1(t *testing.T) {
	model := DefaultT3E600()
	rows := model.ModelTable1()
	if len(rows) != len(PaperTable1) {
		t.Fatalf("%d rows", len(rows))
	}
	check := func(pes int, name string, got, want, relTol, absTol float64) {
		diff := math.Abs(got - want)
		if diff > absTol && diff/want > relTol {
			t.Errorf("PEs=%d %s: model %.4f vs paper %.4f (%.1f%% off)",
				pes, name, got, want, 100*diff/want)
		}
	}
	for i, row := range rows {
		paper := PaperTable1[i]
		check(paper.PEs, "filter", row.Filter, paper.Filter, 0.10, 0.006)
		check(paper.PEs, "motion", row.Motion, paper.Motion, 0.10, 0.01)
		check(paper.PEs, "rvo", row.RVO, paper.RVO, 0.03, 0.01)
		check(paper.PEs, "total", row.Total, paper.Total, 0.03, 0.02)
		check(paper.PEs, "speedup", row.Speedup, paper.Speedup, 0.04, 0.2)
	}
}

func TestSpeedupShapeMatchesPaper(t *testing.T) {
	model := DefaultT3E600()
	rows := model.ModelTable1()
	// Headline claims: "a reasonable speedup is achieved for up to
	// 128 PEs" (81.1x) and 110.5x at 256.
	last := rows[len(rows)-1]
	if last.Speedup < 105 || last.Speedup > 116 {
		t.Errorf("256-PE speedup = %.1f, want ~110.5", last.Speedup)
	}
	// Efficiency decays monotonically with PE count.
	for i := 1; i < len(rows); i++ {
		effPrev := rows[i-1].Speedup / float64(rows[i-1].PEs)
		eff := rows[i].Speedup / float64(rows[i].PEs)
		if eff > effPrev+1e-9 {
			t.Errorf("efficiency increased from %d to %d PEs", rows[i-1].PEs, rows[i].PEs)
		}
	}
	// Total time strictly decreases with more PEs across Table 1.
	for i := 1; i < len(rows); i++ {
		if rows[i].Total >= rows[i-1].Total {
			t.Errorf("total time did not decrease at %d PEs", rows[i].PEs)
		}
	}
}

func TestLargerImagesBetterSpeedup(t *testing.T) {
	// "Larger images take more time, but achieve better speedups."
	model := DefaultT3E600()
	p := 256
	smallT1 := model.TotalTime(1, 64, 64, 16)
	smallTp := model.TotalTime(p, 64, 64, 16)
	bigT1 := model.TotalTime(1, 128, 128, 32)
	bigTp := model.TotalTime(p, 128, 128, 32)
	if bigT1 <= smallT1 || bigTp <= smallTp {
		t.Error("larger image should take more time")
	}
	if bigT1/bigTp <= smallT1/smallTp {
		t.Errorf("larger image speedup %.1f should beat smaller %.1f",
			bigT1/bigTp, smallT1/smallTp)
	}
}

func TestRVODominatesSerialTime(t *testing.T) {
	// "The most time consuming module is the RVO."
	model := DefaultT3E600()
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		r := model.RVOTime(p, 64, 64, 16)
		f := model.FilterTime(p, 64, 64, 16)
		m := model.MotionTime(p, 64, 64, 16)
		if r < f || r < m {
			t.Errorf("PEs=%d: RVO (%.3f) not dominant (filter %.3f, motion %.3f)", p, r, f, m)
		}
	}
}

func TestImbalanceForNonPowerOfTwo(t *testing.T) {
	// 16 slices on 3 PEs: busiest PE has 6 of 16 slices -> imb = 1.125.
	_, imb := scaleAndImbalance(64, 64, 16, 3)
	if math.Abs(imb-6.0/16.0*3.0) > 1e-12 {
		t.Errorf("imbalance = %v, want 1.125", imb)
	}
	// Powers of two divide evenly.
	for _, p := range []int{1, 2, 4, 8, 16, 32, 256} {
		_, imb := scaleAndImbalance(64, 64, 16, p)
		if imb != 1 {
			t.Errorf("p=%d imbalance = %v, want 1", p, imb)
		}
	}
}

// Property: for every PE count 1..512 the modeled chain is never
// slower than serial, never faster than perfectly linear, and the
// speedup is positive.
func TestCostModelBoundsProperty(t *testing.T) {
	model := DefaultT3E600()
	t1 := model.TotalTime(1, 64, 64, 16)
	for p := 1; p <= 512; p++ {
		tp := model.TotalTime(p, 64, 64, 16)
		if tp <= 0 {
			t.Fatalf("p=%d: non-positive time %v", p, tp)
		}
		if tp > t1*1.001 {
			t.Fatalf("p=%d: slower (%v) than serial (%v)", p, tp, t1)
		}
		if sp := t1 / tp; sp > float64(p)*1.05 {
			t.Fatalf("p=%d: super-linear speedup %.1f from a cost model", p, sp)
		}
	}
}

func TestRVOFlopsImplySustainedRate(t *testing.T) {
	// The calibration story: full raster (432 grid points, 64 scans)
	// over the brain at one PE in ~109 s implies ~40-50 Mflop/s.
	flops := RVOFlops(64, 64, 16, 432, 64)
	rate := flops / 109.27
	if rate < 30e6 || rate > 60e6 {
		t.Errorf("implied sustained rate = %.1f Mflop/s, want 30-60", rate/1e6)
	}
	model := DefaultT3E600()
	if math.Abs(rate-model.SustainedFlopsPerPE)/model.SustainedFlopsPerPE > 0.25 {
		t.Errorf("documented rate %.1f Mflop/s inconsistent with implied %.1f",
			model.SustainedFlopsPerPE/1e6, rate/1e6)
	}
}

// RVOFlops estimates the floating-point work of the full RVO raster for
// an image: gridPoints correlation fits of length nScans over the
// brain voxels (~65% of the volume), at ~3 flops per sample plus the fit
// bookkeeping. Used to sanity-check the SustainedFlopsPerPE constant.
func RVOFlops(nx, ny, nz, gridPoints, nScans int) float64 {
	brainVox := 0.65 * float64(nx*ny*nz)
	perFit := 3.0*float64(nScans) + 12
	return brainVox * float64(gridPoints) * perFit
}
