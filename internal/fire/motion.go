package fire

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/volume"
)

// MotionOptions tunes MotionCorrect's shift estimate.
type MotionOptions struct {
	// MaxIter bounds the Gauss-Newton iterations (default 8).
	MaxIter int
	// Tol stops iterating when the update norm falls below it
	// (default 1e-3 voxels).
	Tol float64
	// Border excludes this many voxels at each face from the fit
	// (default 2), avoiding clamped-edge artifacts.
	Border int
}

func (o *MotionOptions) fill() {
	if o.MaxIter == 0 {
		o.MaxIter = 8
	}
	if o.Tol == 0 {
		o.Tol = 1e-3
	}
	if o.Border == 0 {
		o.Border = 2
	}
}

// checkMotion validates a motion fit of cur against ref and fills in
// the option defaults.
func checkMotion(ref, cur *volume.Volume, opts *MotionOptions) error {
	if !ref.SameShape(cur) {
		return fmt.Errorf("fire: shape mismatch %dx%dx%d vs %dx%dx%d",
			ref.NX, ref.NY, ref.NZ, cur.NX, cur.NY, cur.NZ)
	}
	opts.fill()
	b := opts.Border
	for i, n := range [3]int{ref.NX, ref.NY, ref.NZ} {
		if b < 1 || n <= 2*b {
			return fmt.Errorf("fire: motion fit has no interior voxels: N%c = %d with Border %d (need Border >= 1 and N > 2*Border)",
				"XYZ"[i], n, b)
		}
	}
	return nil
}

// estimateShift estimates the rigid translation (in voxels) that maps
// ref onto cur, using the iterative linear scheme the paper describes:
// linearize the image around the current estimate with spatial
// gradients and solve the 3x3 normal equations, then re-resample. Small
// head movements (a few voxels) are the intended regime. The inputs
// must have passed checkMotion; every Gauss-Newton iteration resamples
// cur through s into the same volume moved.
func estimateShift(s *volume.Sampler, moved, ref, cur *volume.Volume, opts MotionOptions) ([3]float64, error) {
	b := opts.Border
	nx, plane := ref.NX, ref.NX*ref.NY
	var d [3]float64
	a := linalg.NewMat(3, 3)
	for iter := 0; iter < opts.MaxIter; iter++ {
		// Resample cur back by the current estimate.
		s.Shift(moved, cur, -d[0], -d[1], -d[2])
		// Accumulate J^T J and J^T r over interior voxels, where J
		// columns are the spatial gradients of the moved image and
		// r is the intensity residual vs. the reference. Border >= 1
		// keeps every neighbor inside the volume, so the gradients are
		// plain central differences.
		// J^T J is symmetric and g[i]*g[j] == g[j]*g[i] exactly, so six
		// running sums, each in serial voxel order, are its nine entries.
		var xx, xy, xz, yy, yz, zz float64
		var jtr [3]float64
		m := moved.Data
		for z := b; z < ref.NZ-b; z++ {
			for y := b; y < ref.NY-b; y++ {
				row := ref.Idx(0, y, z)
				for v := row + b; v < row+nx-b; v++ {
					gx := float64(m[v+1]-m[v-1]) / 2
					gy := float64(m[v+nx]-m[v-nx]) / 2
					gz := float64(m[v+plane]-m[v-plane]) / 2
					r := float64(ref.Data[v] - m[v])
					xx += gx * gx
					xy += gx * gy
					xz += gx * gz
					yy += gy * gy
					yz += gy * gz
					zz += gz * gz
					jtr[0] += gx * r
					jtr[1] += gy * r
					jtr[2] += gz * r
				}
			}
		}
		for i, row := range [3][3]float64{{xx, xy, xz}, {xy, yy, yz}, {xz, yz, zz}} {
			for j, v := range row {
				a.Set(i, j, v)
			}
		}
		delta, err := linalg.Solve(a, jtr[:])
		if err != nil {
			return d, fmt.Errorf("fire: motion normal equations singular (featureless image?): %w", err)
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

// MotionCorrect estimates the shift of cur relative to ref and returns
// cur resampled by it together with the estimate. The corrected image
// is written into dst, which also holds the fit's intermediate
// resamplings, so a loop that passes the same dst every scan allocates
// no volume; nil dst allocates one. dst must have cur's shape and must
// not be cur.
func MotionCorrect(dst, ref, cur *volume.Volume, opts MotionOptions) (*volume.Volume, [3]float64, error) {
	if err := checkMotion(ref, cur, &opts); err != nil {
		return nil, [3]float64{}, err
	}
	switch {
	case dst == nil:
		dst = volume.New(cur.NX, cur.NY, cur.NZ)
	case dst == cur || !dst.SameShape(cur):
		return nil, [3]float64{}, fmt.Errorf("fire: motion-correction target %dx%dx%d is not a separate %dx%dx%d volume",
			dst.NX, dst.NY, dst.NZ, cur.NX, cur.NY, cur.NZ)
	}
	var s volume.Sampler
	d, err := estimateShift(&s, dst, ref, cur, opts)
	if err != nil {
		return nil, d, err
	}
	s.Shift(dst, cur, -d[0], -d[1], -d[2])
	return dst, d, nil
}
