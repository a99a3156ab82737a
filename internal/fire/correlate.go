package fire

import (
	"fmt"
	"math"

	"repro/internal/volume"
)

// Correlator accumulates voxel-wise Pearson correlation between the
// measured signal and a fixed reference vector, scan by scan — the
// core analysis step FIRE performs within the 2-second acquisition
// time. Sums are accumulated incrementally so each new scan costs one
// pass over the volume.
type Correlator struct {
	ref        []float64
	nx, ny, nz int
	n          int     // scans folded in
	sx         float64 // sum of ref over folded scans
	sxx        float64 // sum of ref^2
	// sums holds per voxel the sums of signal, signal^2 and ref*signal,
	// side by side so a scan streams through one array.
	sums [][3]float64
}

// NewCorrelator creates a correlator against the given reference
// vector for volumes of the given shape.
func NewCorrelator(ref []float64, nx, ny, nz int) *Correlator {
	nvox := nx * ny * nz
	return &Correlator{
		ref: ref, nx: nx, ny: ny, nz: nz,
		sums: make([][3]float64, nvox),
	}
}

// Scans reports how many scans have been folded in.
func (c *Correlator) Scans() int { return c.n }

// Add folds in the next scan.
func (c *Correlator) Add(v *volume.Volume) error {
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
	sums := c.sums[:len(v.Data)]
	for i, raw := range v.Data {
		y, s := float64(raw), &sums[i]
		s[0] += y
		s[1] += y * y
		s[2] += x * y
	}
	c.n++
	return nil
}

// Map returns the current correlation-coefficient volume. Voxels with
// (near-)constant signal get correlation 0. At least 3 scans are
// required.
func (c *Correlator) Map() (*volume.Volume, error) {
	if c.n < 3 {
		return nil, fmt.Errorf("fire: need >= 3 scans for a correlation map, have %d", c.n)
	}
	out := volume.New(c.nx, c.ny, c.nz)
	fn := float64(c.n)
	varX := fn*c.sxx - c.sx*c.sx
	if varX <= 0 {
		return out, nil // constant reference so far: all zeros
	}
	for i, s := range c.sums[:len(out.Data)] {
		sy, syy, sxy := s[0], s[1], s[2]
		varY := fn*syy - sy*sy
		if varY <= 1e-12 {
			continue
		}
		cov := fn*sxy - c.sx*sy
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
