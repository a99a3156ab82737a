package fire

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/volume"
)

// The tests in this file pin the motion fit. estimateShift resamples
// plane by plane, folds each plane into the normal equations as soon as
// its neighbors exist and keeps J^T r in scalars; its arithmetic must be
// that of parentEstimateShift below, the fit as it was, kept verbatim
// but for its name. The two differ only in where they stop: the parent
// applied the update that fell below Tol, the fit now stops without
// applying it. So a fit that never converges (Tol < 0) must give the
// parent's estimate and image for every MaxIter, and a fit that
// converges after n iterations must give the parent's at MaxIter n-1.
//
// Voxels and estimates are compared bit for bit, -0 and the infinities
// included, except that a NaN matches any NaN: which NaN a sum of two
// NaNs keeps is the compiler's choice of operand order, not the code's
// (see internal/volume's reference test).

func parentEstimateShift(s *volume.Sampler, moved, ref, cur *volume.Volume, opts MotionOptions) ([3]float64, error) {
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

// parentMotionCorrect is the parent's MotionCorrect around
// parentEstimateShift: fit, then resample once more at the estimate.
func parentMotionCorrect(ref, cur *volume.Volume, opts MotionOptions) (*volume.Volume, [3]float64, error) {
	if err := checkMotion(ref, cur, &opts); err != nil {
		return nil, [3]float64{}, err
	}
	dst := volume.New(cur.NX, cur.NY, cur.NZ)
	var s volume.Sampler
	d, err := parentEstimateShift(&s, dst, ref, cur, opts)
	if err != nil {
		return nil, d, err
	}
	s.Shift(dst, cur, -d[0], -d[1], -d[2])
	return dst, d, nil
}

// same64 and same32 report equal bits, a NaN matching any NaN.
func same64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b }
func same32(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b }

// requireSameFit fails unless two fits' estimates and images agree.
func requireSameFit(t *testing.T, name string, got, want *volume.Volume, gotD, wantD [3]float64) {
	t.Helper()
	for i := range wantD {
		if !same64(gotD[i], wantD[i]) {
			t.Fatalf("%s: estimate axis %d = %v (%#x), parent %v (%#x)", name, i, gotD[i], math.Float64bits(gotD[i]), wantD[i], math.Float64bits(wantD[i]))
		}
	}
	for i := range want.Data {
		if !same32(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: corrected voxel %d = %v, parent %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

// specialScans returns the moved scans the fit tests run on: the
// phantom moved by several shifts, and copies with -0 for air, with
// infinities and NaN in a corner the fit's interior never reads, and
// with a NaN inside it.
func specialScans(ref *volume.Volume) map[string]*volume.Volume {
	scans := map[string]*volume.Volume{}
	for _, d := range [][3]float64{{0.4, -0.3, 0.2}, {1.0, 0, 0}, {-1.2, 0.4, -0.5}, {0, 0, 0}} {
		scans[fmt.Sprintf("shift %v", d)] = shifted(ref, d[0], d[1], d[2])
	}
	base := shifted(ref, 0.5, -0.7, 0.3)
	negZero := shifted(ref, 0.5, -0.7, 0.3)
	for i, v := range negZero.Data {
		if v == 0 {
			negZero.Data[i] = float32(math.Copysign(0, -1))
		}
	}
	scans["-0 air"] = negZero
	corner := shifted(ref, 0.5, -0.7, 0.3)
	corner.Set(0, 0, 0, float32(math.Inf(1)))
	corner.Set(corner.NX-1, 0, 0, float32(math.Inf(-1)))
	corner.Set(0, corner.NY-1, corner.NZ-1, float32(math.NaN()))
	corner.Set(corner.NX-1, corner.NY-1, corner.NZ-1, float32(math.NaN()))
	scans["Inf and NaN corners"] = corner
	inside := shifted(ref, 0.5, -0.7, 0.3)
	inside.Set(base.NX/2, base.NY/2, base.NZ/2, float32(math.NaN()))
	inside.Set(base.NX/2+3, base.NY/2, base.NZ/2, float32(math.Inf(1)))
	scans["NaN inside"] = inside
	return scans
}

func TestMotionFitEqualsParentFitBitForBit(t *testing.T) {
	ref := phantomVolume()
	var fixed *volume.Volume // MotionCorrect's target, reused across the cases
	pinned := 0              // converged fits checked against the parent's at n-1
	for name, cur := range specialScans(ref) {
		for _, border := range []int{2, 1} {
			// Never converging: the parent's fit at every MaxIter.
			for maxIter := 1; maxIter <= 8; maxIter++ {
				opts := MotionOptions{MaxIter: maxIter, Tol: -1, Border: border}
				want, wantD, wantErr := parentMotionCorrect(ref, cur, opts)
				var fit MotionFit
				var err error
				fixed, fit, err = MotionCorrect(fixed, ref, cur, opts)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%s border %d MaxIter %d: error %v, parent %v", name, border, maxIter, err, wantErr)
				}
				if err != nil {
					continue
				}
				if fit.Converged || fit.Iterations != maxIter {
					t.Fatalf("%s border %d MaxIter %d: %d iterations, converged %v", name, border, maxIter, fit.Iterations, fit.Converged)
				}
				requireSameFit(t, fmt.Sprintf("%s border %d MaxIter %d", name, border, maxIter), fixed, want, fit.Shift, wantD)
			}
			// Converging after n iterations: the parent's fit at n-1.
			var fit MotionFit
			var err error
			fixed, fit, err = MotionCorrect(fixed, ref, cur, MotionOptions{Border: border})
			if err != nil {
				continue // the parent errs on the same first solve (checked above)
			}
			if !fit.Converged {
				// Only a NaN the interior reads keeps a fit from
				// converging: the one inside, and at border 1 the corners.
				if name != "NaN inside" && (name != "Inf and NaN corners" || border != 1) {
					t.Errorf("%s border %d: %d iterations without converging", name, border, fit.Iterations)
				}
				continue // checked above at every MaxIter
			}
			name := fmt.Sprintf("%s border %d converged in %d", name, border, fit.Iterations)
			if fit.Iterations == 1 {
				// Nothing applied: the estimate is the zero start.
				if fit.Shift != [3]float64{} {
					t.Fatalf("%s: estimate %v", name, fit.Shift)
				}
				continue
			}
			want, wantD, err := parentMotionCorrect(ref, cur, MotionOptions{MaxIter: fit.Iterations - 1, Tol: -1, Border: border})
			if err != nil {
				t.Fatal(err)
			}
			requireSameFit(t, name, fixed, want, fit.Shift, wantD)
			pinned++
		}
	}
	if pinned < 8 {
		t.Errorf("%d converged fits took more than one iteration, want at least 8", pinned)
	}
}

// A converged fit does no final resampling: its image is the last
// resampling of the fit, which must be cur shifted back by the estimate
// it returns.
func TestConvergedFitIsShiftByItsEstimate(t *testing.T) {
	ref := phantomVolume()
	for name, cur := range specialScans(ref) {
		for _, start := range [][3]float64{{}, {0.5, -0.7, 0.3}, {0.3, -0.4, 0}} {
			fixed, fit, err := MotionCorrect(nil, ref, cur, MotionOptions{Start: start})
			if err != nil {
				t.Fatalf("%s from %v: %v", name, start, err)
			}
			if !fit.Converged {
				continue
			}
			want := volume.New(cur.NX, cur.NY, cur.NZ)
			new(volume.Sampler).Shift(want, cur, -fit.Shift[0], -fit.Shift[1], -fit.Shift[2])
			for i := range want.Data {
				if !same32(fixed.Data[i], want.Data[i]) {
					t.Fatalf("%s from %v: corrected voxel %d = %v, Shift by -%v gives %v", name, start, i, fixed.Data[i], fit.Shift, want.Data[i])
				}
			}
		}
	}
}

// A fit cut off at MaxIter applies its last update and resamples at it:
// its image is cur shifted back by the estimate it returns, and it says
// it did not converge.
func TestFitAtMaxIterResamplesAtItsEstimate(t *testing.T) {
	ref := phantomVolume()
	cur := shifted(ref, -1.2, 0.4, -0.5)
	for maxIter := 1; maxIter <= 3; maxIter++ {
		fixed, fit, err := MotionCorrect(nil, ref, cur, MotionOptions{MaxIter: maxIter})
		if err != nil {
			t.Fatal(err)
		}
		if fit.Converged || fit.Iterations != maxIter {
			t.Fatalf("MaxIter %d: %d iterations, converged %v; want a fit cut off at the cap", maxIter, fit.Iterations, fit.Converged)
		}
		want := shifted(cur, -fit.Shift[0], -fit.Shift[1], -fit.Shift[2])
		for i := range want.Data {
			if math.Float32bits(fixed.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("MaxIter %d: corrected voxel %d = %v, Shift by -%v gives %v", maxIter, i, fixed.Data[i], fit.Shift, want.Data[i])
			}
		}
	}
	// The same fit uncut converges, in more iterations than any cut.
	if _, fit, err := MotionCorrect(nil, ref, cur, MotionOptions{}); err != nil || !fit.Converged || fit.Iterations <= 3 {
		t.Fatalf("uncut fit: %+v, %v; want it converged after more than 3 iterations", fit, err)
	}
}
