package fire

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/volume"
)

// parentCorrelator is Correlator as it was before its three per-voxel
// sums were interleaved into one array, kept verbatim but for its
// names. Correlator.Add and Map do the same operations in the same
// order, so its map must have every bit of this one's.
type parentCorrelator struct {
	ref        []float64
	nx, ny, nz int
	n          int       // scans folded in
	sx         float64   // sum of ref over folded scans
	sxx        float64   // sum of ref^2
	sy         []float64 // per-voxel sum of signal
	syy        []float64 // per-voxel sum of signal^2
	sxy        []float64 // per-voxel sum of ref*signal
}

func newParentCorrelator(ref []float64, nx, ny, nz int) *parentCorrelator {
	nvox := nx * ny * nz
	return &parentCorrelator{
		ref: ref, nx: nx, ny: ny, nz: nz,
		sy: make([]float64, nvox), syy: make([]float64, nvox), sxy: make([]float64, nvox),
	}
}

func (c *parentCorrelator) Add(v *volume.Volume) error {
	if v.NX != c.nx || v.NY != c.ny || v.NZ != c.nz {
		return fmt.Errorf("fire: scan shape %dx%dx%d != correlator shape %dx%dx%d",
			v.NX, v.NY, v.NZ, c.nx, c.ny, c.nz)
	}
	if c.n >= len(c.ref) {
		return fmt.Errorf("fire: more scans (%d) than reference samples (%d)", c.n+1, len(c.ref))
	}
	x := c.ref[c.n]
	c.sx += x
	c.sxx += x * x
	for i, raw := range v.Data {
		y := float64(raw)
		c.sy[i] += y
		c.syy[i] += y * y
		c.sxy[i] += x * y
	}
	c.n++
	return nil
}

func (c *parentCorrelator) Map() (*volume.Volume, error) {
	if c.n < 3 {
		return nil, fmt.Errorf("fire: need >= 3 scans for a correlation map, have %d", c.n)
	}
	out := volume.New(c.nx, c.ny, c.nz)
	fn := float64(c.n)
	varX := fn*c.sxx - c.sx*c.sx
	if varX <= 0 {
		return out, nil // constant reference so far: all zeros
	}
	for i := range out.Data {
		varY := fn*c.syy[i] - c.sy[i]*c.sy[i]
		if varY <= 1e-12 {
			continue
		}
		cov := fn*c.sxy[i] - c.sx*c.sy[i]
		r := cov / math.Sqrt(varX*varY)
		// Clamp FP excursions so downstream clip levels behave.
		if r > 1 {
			r = 1
		} else if r < -1 {
			r = -1
		}
		out.Data[i] = float32(r)
	}
	return out, nil
}

func TestCorrelatorEqualsParentBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	specials := []float32{float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for _, c := range []struct {
		name string
		ref  []float64
	}{
		{"block", []float64{0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1}},
		{"random", []float64{0.3, -1.2, 2.5, 0.01, -0.7, 1.9, 0.4, -2.2, 1.1, 0.6, -0.1, 3}},
		{"constant", []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
	} {
		name, ref := c.name, c.ref
		const nx, ny, nz = 9, 7, 4
		got, want := NewCorrelator(ref, nx, ny, nz), newParentCorrelator(ref, nx, ny, nz)
		scan := volume.New(nx, ny, nz)
		for s := range ref {
			for i := range scan.Data {
				scan.Data[i] = float32(800 + rng.NormFloat64()*50 + 20*ref[s]*float64(i%3))
				switch {
				case i%5 == 0: // a quiet voxel
					scan.Data[i] = 640
				case rng.Intn(40) == 0:
					scan.Data[i] = specials[rng.Intn(len(specials))]
				}
			}
			if err, wantErr := got.Add(scan), want.Add(scan); (err == nil) != (wantErr == nil) {
				t.Fatalf("%s scan %d: Add error %v, parent %v", name, s, err, wantErr)
			}
			m, err := got.Map()
			wm, wantErr := want.Map()
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s scan %d: Map error %v, parent %v", name, s, err, wantErr)
			}
			if err != nil {
				continue
			}
			for i := range wm.Data {
				if math.Float32bits(m.Data[i]) != math.Float32bits(wm.Data[i]) {
					t.Fatalf("%s scan %d voxel %d: r = %v (%#x), parent %v (%#x)", name, s, i, m.Data[i], math.Float32bits(m.Data[i]), wm.Data[i], math.Float32bits(wm.Data[i]))
				}
			}
		}
	}
}
