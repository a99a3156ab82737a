package fire

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/volume"
)

// MotionOptions tunes MotionCorrect's shift estimate.
type MotionOptions struct {
	// MaxIter bounds the Gauss-Newton iterations (default 16).
	MaxIter int
	// Tol stops iterating when the update norm falls below it
	// (default 1e-3 voxels).
	Tol float64
	// Border excludes this many voxels at each face from the fit
	// (default 2), avoiding clamped-edge artifacts.
	Border int
	// Start is the estimate the fit starts from (default zero): a
	// realtime session passes the previous scan's.
	Start [3]float64
}

func (o *MotionOptions) fill() {
	if o.MaxIter == 0 {
		o.MaxIter = 16
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

// MotionFit is the outcome of one motion fit.
type MotionFit struct {
	// Shift is the estimate, in voxels: the shift the fit's last
	// resampling removed when it converged, the last update applied
	// when it reached MaxIter.
	Shift [3]float64
	// Iterations counts the Gauss-Newton iterations, each one
	// resampling and one solve.
	Iterations int
	// Converged reports that the last update fell below Tol, so the fit
	// stopped without applying it.
	Converged bool
}

// estimateShift estimates the rigid translation (in voxels) that maps
// ref onto cur, using the iterative linear scheme the paper describes:
// linearize the image around the current estimate with spatial
// gradients and solve the 3x3 normal equations, then re-resample. Small
// head movements (a few voxels) are the intended regime. The fit starts
// at opts.Start and stops without applying an update that falls below
// Tol: its estimate is then the one the last resampling used. The
// inputs must have passed checkMotion; every Gauss-Newton iteration
// resamples cur through s into the same volume moved, one z-plane at a
// time, and folds each plane into the normal equations as soon as the
// planes around it are resampled.
func estimateShift(s *volume.Sampler, moved, ref, cur *volume.Volume, opts MotionOptions) (MotionFit, error) {
	b := opts.Border
	nx, ny, nz, plane, w := ref.NX, ref.NY, ref.NZ, ref.NX*ref.NY, ref.NX-2*opts.Border
	fit := MotionFit{Shift: opts.Start}
	d := &fit.Shift
	a := linalg.NewMat(3, 3)
	for fit.Iterations < opts.MaxIter {
		fit.Iterations++
		// Resample cur back by the current estimate, and accumulate
		// J^T J and J^T r over interior voxels, where J columns are the
		// spatial gradients of the moved image and r is the intensity
		// residual vs. the reference. Border >= 1 keeps every neighbor
		// inside the volume, so the gradients are plain central
		// differences; plane z's are taken once plane z+1 is made.
		// J^T J is symmetric and g[i]*g[j] == g[j]*g[i] exactly, so six
		// running sums, each in serial voxel order, are its nine entries.
		// The sums take the differences unhalved and are scaled by 1/4
		// (1/2 for J^T r) at the end: a power-of-two scale commutes with
		// every rounding here, because a product of two float32
		// differences is 0 or a multiple of 2^-298, far from float64's
		// subnormals, and far below its overflow, so each sum is the
		// same bits as the sum of halved gradients.
		s.ResetShift(cur, -d[0], -d[1], -d[2])
		var xx, xy, xz, yy, yz, zz, rx, ry, rz float64
		m := moved.Data
		for k := 0; k < nz; k++ {
			s.Plane(k, m[k*plane:(k+1)*plane])
			z := k - 1
			if z < b || z >= nz-b {
				continue
			}
			for y := b; y < ny-b; y++ {
				// The row's interior voxels v and their six neighbors,
				// each a slice of w voxels.
				v := z*plane + y*nx + b
				c, rf := m[v:v+w], ref.Data[v:v+w]
				xm, xp := m[v-1 : v-1+w][:len(c)], m[v+1 : v+1+w][:len(c)]
				ym, yp := m[v-nx : v-nx+w][:len(c)], m[v+nx : v+nx+w][:len(c)]
				zm, zp := m[v-plane : v-plane+w][:len(c)], m[v+plane : v+plane+w][:len(c)]
				rf = rf[:len(c)]
				for x := range c {
					gx := float64(xp[x] - xm[x])
					gy := float64(yp[x] - ym[x])
					gz := float64(zp[x] - zm[x])
					r := float64(rf[x] - c[x])
					xx += gx * gx
					xy += gx * gy
					xz += gx * gz
					yy += gy * gy
					yz += gy * gz
					zz += gz * gz
					rx += gx * r
					ry += gy * r
					rz += gz * r
				}
			}
		}
		xx, xy, xz, yy, yz, zz = xx/4, xy/4, xz/4, yy/4, yz/4, zz/4
		rx, ry, rz = rx/2, ry/2, rz/2
		for i, row := range [3][3]float64{{xx, xy, xz}, {xy, yy, yz}, {xz, yz, zz}} {
			for j, v := range row {
				a.Set(i, j, v)
			}
		}
		delta, err := linalg.Solve(a, []float64{rx, ry, rz})
		if err != nil {
			return fit, fmt.Errorf("fire: motion normal equations singular (featureless image?): %w", err)
		}
		if math.Sqrt(delta[0]*delta[0]+delta[1]*delta[1]+delta[2]*delta[2]) < opts.Tol {
			fit.Converged = true
			return fit, nil
		}
		d[0] += delta[0]
		d[1] += delta[1]
		d[2] += delta[2]
	}
	return fit, nil
}

// MotionCorrect estimates the shift of cur relative to ref and returns
// cur resampled by it together with the fit. The corrected image is
// written into dst, which also holds the fit's intermediate
// resamplings, so a loop that passes the same dst every scan allocates
// no volume; nil dst allocates one. dst must have cur's shape and must
// not be cur. A converged fit's last resampling is the corrected image;
// a fit that reached MaxIter applies its last update and resamples once
// more.
func MotionCorrect(dst, ref, cur *volume.Volume, opts MotionOptions) (*volume.Volume, MotionFit, error) {
	if err := checkMotion(ref, cur, &opts); err != nil {
		return nil, MotionFit{}, err
	}
	switch {
	case dst == nil:
		dst = volume.New(cur.NX, cur.NY, cur.NZ)
	case dst == cur || !dst.SameShape(cur):
		return nil, MotionFit{}, fmt.Errorf("fire: motion-correction target %dx%dx%d is not a separate %dx%dx%d volume",
			dst.NX, dst.NY, dst.NZ, cur.NX, cur.NY, cur.NZ)
	}
	var s volume.Sampler
	fit, err := estimateShift(&s, dst, ref, cur, opts)
	if err != nil {
		return nil, fit, err
	}
	if !fit.Converged {
		s.Shift(dst, cur, -fit.Shift[0], -fit.Shift[1], -fit.Shift[2])
	}
	return dst, fit, nil
}
