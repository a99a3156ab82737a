package fire

import (
	"fmt"
	"math"

	"repro/internal/mri"
	"repro/internal/volume"
)

// RVOOptions configures reference-vector optimization: the raster of
// the (delay, dispersion) parameter space the paper describes, plus the
// planned coarse-grid + iterative refinement.
type RVOOptions struct {
	// Delays are the candidate HRF delays in seconds.
	Delays []float64
	// Dispersions are the candidate HRF dispersions in seconds.
	Dispersions []float64
	// Refine enables local Gauss-Newton refinement of the grid
	// optimum — the optimization the paper plans ("the resolution of
	// the grid can be reduced and the solution refined").
	Refine bool
	// RefineIters bounds refinement iterations (default 6).
	RefineIters int
	// MinStd skips voxels whose temporal standard deviation is below
	// this threshold (air/background), in signal units.
	MinStd float64
	// DetrendOrder applies FIRE's detrending module to each voxel
	// series before fitting (0 = off; 1 = linear drift removal, the
	// common configuration).
	DetrendOrder int
}

// DefaultRVOGrid returns the full-resolution raster used by the T3E
// implementation: 24 delays x 18 dispersions.
func DefaultRVOGrid() RVOOptions {
	return RVOOptions{
		Delays:      linspace(2.0, 13.5, 24),
		Dispersions: linspace(0.4, 3.8, 18),
		MinStd:      1e-6,
	}
}

// CoarseRVOGrid returns the reduced raster (6 x 5) meant to be combined
// with Refine — the paper's planned optimization.
func CoarseRVOGrid() RVOOptions {
	return RVOOptions{
		Delays:      linspace(2.0, 13.5, 6),
		Dispersions: linspace(0.4, 3.8, 5),
		Refine:      true,
		MinStd:      1e-6,
	}
}

func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = lo
		return out
	}
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// RVOResult holds per-voxel optimized hemodynamic parameters.
type RVOResult struct {
	// Corr is the correlation against the per-voxel best reference.
	Corr *volume.Volume
	// Delay and Dispersion are the fitted HRF parameters (0 where
	// skipped).
	Delay      *volume.Volume
	Dispersion *volume.Volume
	// Evaluated counts voxel-gridpoint correlation evaluations (the
	// work measure the cost model charges for).
	Evaluated int64
}

// gridRef is one precomputed (delay, dispersion) reference vector.
type gridRef struct {
	delay, disp float64
	ref         []float64
}

// RVO rasters the HRF parameter space per voxel: for every (delay,
// dispersion) grid point the stimulus is convolved into a normalized
// reference, and the voxel's (demeaned) series is correlated against
// it; the parameters with the highest correlation win. With
// opts.Refine, the grid optimum is polished by Gauss-Newton on the
// correlation objective.
//
// series must all share one shape and len(series) <= len(stim).
func RVO(series []*volume.Volume, stim []float64, tr float64, opts RVOOptions) (*RVOResult, error) {
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
	res.Evaluated = rvoVoxelRange(series, stim[:nt], tr, refs, det, opts, res, 0, shape.Voxels())
	return res, nil
}

// detrenderFor builds the optional per-voxel detrender. The returned
// Detrender is safe for concurrent use (its state is read-only after
// construction).
func detrenderFor(opts RVOOptions, nt int) (*Detrender, error) {
	if opts.DetrendOrder <= 0 {
		return nil, nil
	}
	return NewDetrender(nt, opts.DetrendOrder)
}

// rvoVoxelRange processes voxels [lo, hi) into res and returns the
// number of grid evaluations. Disjoint ranges may run concurrently:
// each voxel writes only its own output elements.
func rvoVoxelRange(series []*volume.Volume, stim []float64, tr float64, refs []gridRef, det *Detrender, opts RVOOptions, res *RVOResult, lo, hi int) int64 {
	nt := len(series)
	y := make([]float64, nt)
	var evaluated int64
	for vi := lo; vi < hi; vi++ {
		// Gather the voxel series, optionally detrend, then demean.
		for t, v := range series {
			y[t] = float64(v.Data[vi])
		}
		if det != nil {
			// Apply cannot fail here: the length matches by
			// construction.
			_, _ = det.Apply(y)
		}
		var mean float64
		for t := range y {
			mean += y[t]
		}
		mean /= float64(nt)
		var ss float64
		for t := range y {
			y[t] -= mean
			ss += y[t] * y[t]
		}
		std := math.Sqrt(ss / float64(nt))
		if std < opts.MinStd {
			continue
		}
		norm := math.Sqrt(ss)
		best, bestIdx := -2.0, -1
		for ri := range refs {
			var dot float64
			r := refs[ri].ref
			for t := range y {
				dot += y[t] * r[t]
			}
			evaluated++
			// ref is unit-variance with n samples: ||ref|| = sqrt(n).
			c := dot / (norm * math.Sqrt(float64(nt)))
			if c > best {
				best, bestIdx = c, ri
			}
		}
		delay, disp := refs[bestIdx].delay, refs[bestIdx].disp
		if opts.Refine {
			delay, disp, best = refineVoxel(y, norm, stim, tr, delay, disp, best, opts.RefineIters)
		}
		res.Corr.Data[vi] = float32(best)
		res.Delay.Data[vi] = float32(delay)
		res.Dispersion.Data[vi] = float32(disp)
	}
	return evaluated
}

// corrAt evaluates the correlation of the demeaned series y against the
// reference generated by (delay, disp).
func corrAt(y []float64, norm float64, stim []float64, tr, delay, disp float64) float64 {
	ref := mri.HRF{Delay: delay, Dispersion: disp}.Convolve(stim, tr)
	var dot float64
	for t := range y {
		dot += y[t] * ref[t]
	}
	return dot / (norm * math.Sqrt(float64(len(y))))
}

// refineVoxel polishes a grid optimum with damped Newton steps on the
// 2-parameter correlation surface, using finite differences.
func refineVoxel(y []float64, norm float64, stim []float64, tr, delay, disp, cur float64, iters int) (float64, float64, float64) {
	const hD, hW = 0.05, 0.02
	for it := 0; it < iters; it++ {
		f0 := cur
		fdp := corrAt(y, norm, stim, tr, delay+hD, disp)
		fdm := corrAt(y, norm, stim, tr, delay-hD, disp)
		fwp := corrAt(y, norm, stim, tr, delay, disp+hW)
		fwm := corrAt(y, norm, stim, tr, delay, disp-hW)
		gd := (fdp - fdm) / (2 * hD)
		gw := (fwp - fwm) / (2 * hW)
		hdd := (fdp - 2*f0 + fdm) / (hD * hD)
		hww := (fwp - 2*f0 + fwm) / (hW * hW)
		// Diagonal damped Newton: negative curvature required for a
		// maximum; otherwise fall back to gradient ascent.
		var sd, sw float64
		if hdd < -1e-9 {
			sd = -gd / hdd
		} else {
			sd = gd * 0.5
		}
		if hww < -1e-9 {
			sw = -gw / hww
		} else {
			sw = gw * 0.1
		}
		// Trust region: cap step size.
		sd = clampF(sd, -1.0, 1.0)
		sw = clampF(sw, -0.4, 0.4)
		nd := math.Max(0.1, delay+sd)
		nw := math.Max(0.05, disp+sw)
		f1 := corrAt(y, norm, stim, tr, nd, nw)
		if f1 <= cur+1e-9 {
			break
		}
		delay, disp, cur = nd, nw, f1
	}
	return delay, disp, cur
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
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
