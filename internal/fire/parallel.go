package fire

import (
	"fmt"
	"runtime"
	"sync"

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
