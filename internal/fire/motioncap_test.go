package fire

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mri"
)

// The default iteration cap must let a cold fit of a real step
// converge: on the scanner's 64x64x16 phantom with one activation site,
// scan 1 moved 0.5 to 4 voxels in x and y under noise of σ 3 and 10,
// fitted against the noise-free anatomy from zero — as the first fit
// after a subject moves starts when the session has not yet seen
// motion — each fit must stop on Tol below MaxIter, within 0.01 voxel
// of the step.
func TestMotionFitConvergesBelowDefaultCap(t *testing.T) {
	act := mri.Activation{CX: 32, CY: 28, CZ: 8, Radius: 5, Amplitude: 0.05, HRF: mri.DefaultHRF}
	ph := mri.NewPhantom(64, 64, 16, []mri.Activation{act})
	var opts MotionOptions
	opts.fill()
	steps := [][2]float64{{0.5, 0}, {0, 0.5}, {0.5, -0.5}, {1, 1}, {-1.5, 0.5}, {2, 0}, {0, -2}, {2.5, 2.5}, {-3, 1}, {3, -3}, {4, 0}, {0, 4}, {-4, -4}}
	for _, sigma := range []float64{3, 10} {
		for _, d := range steps {
			sc := mri.NewScanner(ph, mri.ScanConfig{NX: 64, NY: 64, NZ: 16, TR: 2, NScans: 2, NoiseStd: sigma, Seed: 51,
				Motion: []mri.Shift{{}, {DX: d[0], DY: d[1]}}})
			sc.Next()
			_, fit, err := MotionCorrect(nil, ph.Anatomy, sc.Next(), MotionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("σ %v step (%v, %v)", sigma, d[0], d[1])
			if !fit.Converged || fit.Iterations >= opts.MaxIter {
				t.Errorf("%s: %d iterations, converged %v; want convergence below the cap of %d", name, fit.Iterations, fit.Converged, opts.MaxIter)
			}
			if e := math.Hypot(math.Hypot(fit.Shift[0]-d[0], fit.Shift[1]-d[1]), fit.Shift[2]); e > 0.01 {
				t.Errorf("%s: estimate %v is %.4f voxel from the step", name, fit.Shift, e)
			}
		}
	}
}
