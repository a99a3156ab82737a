// Package climate reimplements the distributed climate/weather project
// of the testbed: an ocean-ice model (a MOM-2 stand-in) coupled to an
// atmospheric model (an IFS stand-in) through a CSM-style flux coupler
// that exchanges 2-D surface fields every coupling timestep — "up to
// 1 MByte in short bursts" across the WAN. The ocean ran on the Cray
// T3E, the atmosphere on the IBM SP2.
//
// The models are deliberately compact but physically structured:
// diffusive-advective evolution, radiative-equilibrium forcing, bulk
// air-sea exchange, an ice threshold, and bilinear regridding between
// the differing ocean and atmosphere grids.
package climate

import (
	"fmt"
	"math"
)

// Grid is a regular latitude-longitude grid with cell centers at
// lat_j = -90 + 180 (j+0.5)/NLat and lon_i = 360 (i+0.5)/NLon.
type Grid struct {
	NLat, NLon int
}

// Cells reports the number of grid cells.
func (g Grid) Cells() int { return g.NLat * g.NLon }

// Idx maps (lat row j, lon column i) to a linear index.
func (g Grid) Idx(j, i int) int { return j*g.NLon + i }

// Lat reports the latitude of row j in degrees.
func (g Grid) Lat(j int) float64 { return -90 + 180*(float64(j)+0.5)/float64(g.NLat) }

// Lon reports the longitude of column i in degrees.
func (g Grid) Lon(i int) float64 { return 360 * (float64(i) + 0.5) / float64(g.NLon) }

// Regrid interpolates field f from grid src to grid dst bilinearly,
// periodic in longitude and clamped in latitude, writing the result
// into out (dst.Cells() values). A constant field maps to the same
// constant exactly.
func Regrid(src Grid, f []float64, dst Grid, out []float64) error {
	if len(f) != src.Cells() {
		return fmt.Errorf("climate: field length %d != %d cells", len(f), src.Cells())
	}
	if len(out) != dst.Cells() {
		return fmt.Errorf("climate: regrid output length %d != %d cells", len(out), dst.Cells())
	}
	// A destination column's taps are the same on every row, so they
	// are computed once per call, into a fixed array that needs no
	// allocation: a grid wider than it is done in strips of columns.
	var strip [256]lonTap
	for c0 := 0; c0 < dst.NLon; c0 += len(strip) {
		cols := strip[:min(len(strip), dst.NLon-c0)]
		for k := range cols {
			cols[k] = lonTapAt(src, dst.Lon(c0+k))
		}
		for j := 0; j < dst.NLat; j++ {
			// Fractional source row of this destination latitude.
			lat := dst.Lat(j)
			fj := (lat+90)/180*float64(src.NLat) - 0.5
			j0 := int(math.Floor(fj))
			wj := fj - float64(j0)
			j1 := j0 + 1
			if j0 < 0 {
				j0, j1, wj = 0, 0, 0
			}
			if j1 >= src.NLat {
				j0, j1, wj = src.NLat-1, src.NLat-1, 0
			}
			row := out[dst.Idx(j, c0):][:len(cols)]
			for k, c := range cols {
				v00 := f[src.Idx(j0, c.i0)]
				v01 := f[src.Idx(j0, c.i1)]
				v10 := f[src.Idx(j1, c.i0)]
				v11 := f[src.Idx(j1, c.i1)]
				wi := c.wi
				row[k] = (1-wj)*((1-wi)*v00+wi*v01) + wj*((1-wi)*v10+wi*v11)
			}
		}
	}
	return nil
}

// lonTap is the longitude half of a bilinear sample: the two source
// columns around a longitude, wrapped periodically, and the weight of
// the upper one.
type lonTap struct {
	i0, i1 int
	wi     float64
}

// lonTapAt returns the tap of longitude lon on grid src.
func lonTapAt(src Grid, lon float64) lonTap {
	fi := lon/360*float64(src.NLon) - 0.5
	i0 := int(math.Floor(fi))
	wi := fi - float64(i0)
	i1 := i0 + 1
	// Periodic wrap.
	i0 = ((i0 % src.NLon) + src.NLon) % src.NLon
	i1 = ((i1 % src.NLon) + src.NLon) % src.NLon
	return lonTap{i0, i1, wi}
}

// AreaMean reports the area-weighted (cos latitude) mean of a field.
func AreaMean(g Grid, f []float64) float64 {
	var sum, wsum float64
	for j := 0; j < g.NLat; j++ {
		w := math.Cos(g.Lat(j) * math.Pi / 180)
		for i := 0; i < g.NLon; i++ {
			sum += w * f[g.Idx(j, i)]
			wsum += w
		}
	}
	return sum / wsum
}
