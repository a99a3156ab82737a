package climate

import (
	"fmt"
	"math"
)

// FreezePoint is the sea-water freezing temperature in Kelvin.
const FreezePoint = 271.35

// Ocean is the slab ocean-ice model (the MOM-2 stand-in): sea-surface
// temperature evolving under horizontal diffusion, surface heat flux
// and weak relaxation to a meridional climatology, with a diagnostic
// ice fraction where the surface is at the freezing point.
type Ocean struct {
	Grid Grid
	SST  []float64 // Kelvin
	Ice  []float64 // fraction [0,1]

	// Kappa is the horizontal diffusivity in grid-index units^2 per
	// second (kappa*dt must stay below 0.25 for stability).
	Kappa float64
	// HeatCapacity is the areal heat capacity (J/m^2/K) of the mixed
	// layer, converting W/m^2 to K/s.
	HeatCapacity float64
	// Relax is the climatology relaxation rate (1/s).
	Relax float64

	scratch []float64
}

// NewOcean builds an ocean initialized to the meridional climatology.
func NewOcean(g Grid) *Ocean {
	o := &Ocean{
		Grid: g, SST: make([]float64, g.Cells()), Ice: make([]float64, g.Cells()),
		Kappa: 5e-6, HeatCapacity: 4.2e6 * 50, Relax: 1.0 / (86400 * 30),
		scratch: make([]float64, g.Cells()),
	}
	for j := 0; j < g.NLat; j++ {
		for i := 0; i < g.NLon; i++ {
			o.SST[g.Idx(j, i)] = o.Climatology(g.Lat(j))
		}
	}
	o.updateIce()
	return o
}

// Climatology is the relaxation target: warm equator, freezing poles.
func (o *Ocean) Climatology(lat float64) float64 {
	return 271.0 + 29*math.Cos(lat*math.Pi/180)*math.Cos(lat*math.Pi/180)
}

// Step advances the ocean by dt seconds under the given surface heat
// flux (W/m^2, positive warms the ocean, on the ocean grid).
func (o *Ocean) Step(dt float64, heatFlux []float64) error {
	g := o.Grid
	if len(heatFlux) != g.Cells() {
		return fmt.Errorf("climate: heat flux length %d != %d", len(heatFlux), g.Cells())
	}
	if o.Kappa*dt > 0.25 {
		return fmt.Errorf("climate: unstable ocean diffusion number %v (kappa*dt)", o.Kappa*dt)
	}
	copy(o.scratch, o.SST)
	for j := 0; j < g.NLat; j++ {
		jm, jp := j-1, j+1
		if jm < 0 {
			jm = 0
		}
		if jp >= g.NLat {
			jp = g.NLat - 1
		}
		clim := o.Climatology(g.Lat(j))
		for i := 0; i < g.NLon; i++ {
			im := (i - 1 + g.NLon) % g.NLon
			ip := (i + 1) % g.NLon
			c := g.Idx(j, i)
			lap := o.scratch[g.Idx(j, im)] + o.scratch[g.Idx(j, ip)] +
				o.scratch[g.Idx(jm, i)] + o.scratch[g.Idx(jp, i)] - 4*o.scratch[c]
			sst := o.scratch[c] +
				o.Kappa*dt*lap +
				dt*heatFlux[c]/o.HeatCapacity +
				dt*o.Relax*(clim-o.scratch[c])
			// Latent buffering at the freezing point.
			if sst < FreezePoint-2 {
				sst = FreezePoint - 2
			}
			o.SST[c] = sst
		}
	}
	o.updateIce()
	return nil
}

// updateIce diagnoses ice cover: full ice 2 K below freezing, ramping
// to none at the freezing point.
func (o *Ocean) updateIce() {
	for c, t := range o.SST {
		switch {
		case t <= FreezePoint-2:
			o.Ice[c] = 1
		case t >= FreezePoint:
			o.Ice[c] = 0
		default:
			o.Ice[c] = (FreezePoint - t) / 2
		}
	}
}
