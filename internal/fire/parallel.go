package fire

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/mri"
	"repro/internal/volume"
)

// This file parallelizes the voxel-independent FIRE modules with real
// goroutines, mirroring the domain decomposition the T3E implementation
// used. Results are bit-identical to the serial paths (voxels are
// independent; each worker owns a disjoint output range).

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

// validateRVOInputs factors the RVO precondition checks.
func validateRVOInputs(series []*volume.Volume, stim []float64, opts RVOOptions) error {
	if len(series) < 4 {
		return fmt.Errorf("fire: RVO needs >= 4 scans, have %d", len(series))
	}
	if len(opts.Delays) == 0 || len(opts.Dispersions) == 0 {
		return fmt.Errorf("fire: empty RVO grid")
	}
	if len(stim) < len(series) {
		return fmt.Errorf("fire: stimulus shorter (%d) than series (%d)", len(stim), len(series))
	}
	shape := series[0]
	for _, v := range series {
		if !v.SameShape(shape) {
			return fmt.Errorf("fire: inconsistent series shapes")
		}
	}
	return nil
}

// buildRVORefs precomputes the normalized grid references.
func buildRVORefs(stim []float64, tr float64, opts RVOOptions) []gridRef {
	refs := make([]gridRef, 0, len(opts.Delays)*len(opts.Dispersions))
	for _, d := range opts.Delays {
		for _, w := range opts.Dispersions {
			refs = append(refs, gridRef{d, w, mri.HRF{Delay: d, Dispersion: w}.Convolve(stim, tr)})
		}
	}
	return refs
}
