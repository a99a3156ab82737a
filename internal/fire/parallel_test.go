package fire

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mri"
	"repro/internal/volume"
)

// The parallel filter and RVO below distribute the voxel-independent
// FIRE modules over real goroutines, mirroring the domain decomposition
// the T3E implementation used. Results are bit-identical to the serial
// paths (voxels are independent; each worker owns a disjoint output
// range).

// ParallelMedianFilter3D is MedianFilter3D with the volume's z-slabs
// distributed over workers goroutines (workers <= 0 uses GOMAXPROCS).
func ParallelMedianFilter3D(v *volume.Volume, r, workers int) *volume.Volume {
	if r <= 0 {
		return v.Clone()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := volume.New(v.NX, v.NY, v.NZ)
	slabs := volume.SlabDecomp(v.NZ, workers)
	var wg sync.WaitGroup
	for _, s := range slabs {
		if s.Slices() == 0 {
			continue
		}
		wg.Add(1)
		go func(s volume.Slab) {
			defer wg.Done()
			medianSlab(v, out, r, s.Z0, s.Z1)
		}(s)
	}
	wg.Wait()
	return out
}

// medianSlab filters slices [z0, z1) of v into out.
func medianSlab(v, out *volume.Volume, r, z0, z1 int) {
	win := make([]float32, 0, (2*r+1)*(2*r+1)*(2*r+1))
	for z := z0; z < z1; z++ {
		for y := 0; y < v.NY; y++ {
			for x := 0; x < v.NX; x++ {
				win = win[:0]
				for dz := -r; dz <= r; dz++ {
					zz := clampIdx(z+dz, v.NZ)
					for dy := -r; dy <= r; dy++ {
						yy := clampIdx(y+dy, v.NY)
						for dx := -r; dx <= r; dx++ {
							xx := clampIdx(x+dx, v.NX)
							win = append(win, v.At(xx, yy, zz))
						}
					}
				}
				insertionSort(win)
				out.Set(x, y, z, win[len(win)/2])
			}
		}
	}
}

// insertionSort is faster than sort.Slice for the small (27..125
// element) filter windows and allocation-free.
func insertionSort(a []float32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

func TestParallelMedianMatchesSerial(t *testing.T) {
	ph := mri.NewPhantom(24, 24, 12, nil)
	v := ph.Anatomy
	serial := MedianFilter3D(v, 1)
	for _, workers := range []int{1, 2, 3, 4, 16} {
		par := ParallelMedianFilter3D(v, 1, workers)
		for i := range serial.Data {
			if par.Data[i] != serial.Data[i] {
				t.Fatalf("workers=%d: voxel %d differs (%v vs %v)",
					workers, i, par.Data[i], serial.Data[i])
			}
		}
	}
	// Zero radius clones.
	c := ParallelMedianFilter3D(v, 0, 4)
	if c.At(12, 12, 6) != v.At(12, 12, 6) {
		t.Error("r=0 should copy")
	}
}

func TestParallelRVOMatchesSerial(t *testing.T) {
	series, stim, tr, center := rvoSeries(t, mri.HRF{Delay: 7, Dispersion: 1.2})
	serial, err := RVO(series, stim, tr, DefaultRVOGrid())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		par, err := ParallelRVO(series, stim, tr, DefaultRVOGrid(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if par.Evaluated != serial.Evaluated {
			t.Errorf("workers=%d: %d evaluations vs serial %d", workers, par.Evaluated, serial.Evaluated)
		}
		for i := range serial.Corr.Data {
			if par.Corr.Data[i] != serial.Corr.Data[i] ||
				par.Delay.Data[i] != serial.Delay.Data[i] ||
				par.Dispersion.Data[i] != serial.Dispersion.Data[i] {
				t.Fatalf("workers=%d: voxel %d differs", workers, i)
			}
		}
	}
	_ = center
}

func TestParallelRVOWorkersDefault(t *testing.T) {
	series, stim, tr, _ := rvoSeries(t, mri.DefaultHRF)
	// workers <= 0 -> GOMAXPROCS; must still validate inputs.
	if _, err := ParallelRVO(series[:2], stim, tr, DefaultRVOGrid(), 0); err == nil {
		t.Error("short series accepted")
	}
	res, err := ParallelRVO(series, stim, tr, CoarseRVOGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated == 0 {
		t.Error("no work done")
	}
}

func TestT3EExecutor(t *testing.T) {
	ph := mri.NewPhantom(32, 32, 8, nil)
	raw := ph.Anatomy.Shift(0.5, -0.3, 0.1)
	ex := &T3EExecutor{Model: DefaultT3E600(), PEs: 128, Workers: 2}
	out, err := ex.Process(ph.Anatomy, raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.Filtered == nil || !out.Filtered.SameShape(raw) {
		t.Fatal("no filtered output")
	}
	// Modeled time scales with image size relative to the Table-1
	// reference (32x32x8 is 1/16 the work).
	ref := DefaultT3E600().TotalTime(128, 32, 32, 8)
	if out.ModeledSeconds != ref {
		t.Errorf("modeled %.4f s, want %.4f", out.ModeledSeconds, ref)
	}
	// Unconfigured executor errors.
	bad := &T3EExecutor{}
	if _, err := bad.Process(nil, raw); err == nil {
		t.Error("unconfigured executor accepted work")
	}
	// Without a reference, motion correction is skipped but filtering
	// still happens.
	out2, err := ex.Process(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Filtered == nil {
		t.Error("no output without reference")
	}
}

func TestInsertionSortCorrect(t *testing.T) {
	a := []float32{5, 1, 4, 2, 3, 3, -1}
	insertionSort(a)
	for i := 1; i < len(a); i++ {
		if a[i-1] > a[i] {
			t.Fatalf("not sorted: %v", a)
		}
	}
	empty := []float32{}
	insertionSort(empty) // must not panic
	one := []float32{7}
	insertionSort(one)
	if one[0] != 7 {
		t.Error("single element corrupted")
	}
}

func TestParallelFilterOddSlabCounts(t *testing.T) {
	// More workers than slices: some slabs are empty and must be
	// skipped cleanly.
	v := volume.New(8, 8, 3)
	for i := range v.Data {
		v.Data[i] = float32(i % 7)
	}
	serial := MedianFilter3D(v, 1)
	par := ParallelMedianFilter3D(v, 1, 16)
	for i := range serial.Data {
		if serial.Data[i] != par.Data[i] {
			t.Fatalf("voxel %d differs", i)
		}
	}
}

// ParallelRVO is RVO with the voxel loop split across workers
// goroutines. Results are identical to the serial RVO.
func ParallelRVO(series []*volume.Volume, stim []float64, tr float64, opts RVOOptions, workers int) (*RVOResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return RVO(series, stim, tr, opts)
	}
	if err := validateRVOInputs(series, stim, opts); err != nil {
		return nil, err
	}
	if opts.RefineIters == 0 {
		opts.RefineIters = 6
	}
	nt := len(series)
	shape := series[0]
	refs := buildRVORefs(stim[:nt], tr, opts)
	det, err := detrenderFor(opts, nt)
	if err != nil {
		return nil, err
	}
	res := &RVOResult{
		Corr:       volume.New(shape.NX, shape.NY, shape.NZ),
		Delay:      volume.New(shape.NX, shape.NY, shape.NZ),
		Dispersion: volume.New(shape.NX, shape.NY, shape.NZ),
	}
	nvox := shape.Voxels()
	var evaluated int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * nvox / workers
		hi := (w + 1) * nvox / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			n := rvoVoxelRange(series, stim[:nt], tr, refs, det, opts, res, lo, hi)
			atomic.AddInt64(&evaluated, n)
		}(lo, hi)
	}
	wg.Wait()
	res.Evaluated = evaluated
	return res, nil
}

// T3EExecutor runs the full module chain with real goroutine
// parallelism while reporting what the same work would have cost on the
// modeled Cray partition — the dual view the reproduction offers.
type T3EExecutor struct {
	Model   *T3EModel
	PEs     int
	Workers int
}

// ProcessedScan is the executor's output for one raw scan.
type ProcessedScan struct {
	Filtered *volume.Volume
	// ModeledSeconds is the Table-1-calibrated T3E time for the
	// filter+motion+RVO chain at the executor's PE count.
	ModeledSeconds float64
}

// Process runs the realtime per-scan work (median filter; motion
// estimation against ref when ref != nil) and reports the modeled T3E
// chain time for the scan's dimensions.
func (e *T3EExecutor) Process(ref, raw *volume.Volume) (*ProcessedScan, error) {
	if e.Model == nil || e.PEs < 1 {
		return nil, fmt.Errorf("fire: executor not configured (model=%v pes=%d)", e.Model != nil, e.PEs)
	}
	out := &ProcessedScan{}
	out.Filtered = ParallelMedianFilter3D(raw, 1, e.Workers)
	if ref != nil {
		fixed, _, err := MotionCorrect(nil, ref, out.Filtered, MotionOptions{})
		if err != nil {
			return nil, err
		}
		out.Filtered = fixed
	}
	out.ModeledSeconds = e.Model.TotalTime(e.PEs, raw.NX, raw.NY, raw.NZ)
	return out, nil
}
