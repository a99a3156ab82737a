package climate

import (
	"fmt"
	"math"
)

// Atmos is the atmospheric model (the IFS stand-in): near-surface air
// temperature on its own (coarser) grid, relaxed toward radiative
// equilibrium, zonally advected by a prescribed jet, and exchanging
// heat with the ocean surface through a bulk formula. It produces the
// surface fields the coupler ships to the ocean: net heat flux and wind
// stress.
type Atmos struct {
	Grid Grid
	TA   []float64 // near-surface air temperature, K

	// RadRelax is the radiative relaxation rate (1/s).
	RadRelax float64
	// ExchangeW is the bulk air-sea exchange coefficient (W/m^2/K).
	ExchangeW float64
	// AirCapacity is the areal heat capacity of the boundary layer
	// (J/m^2/K).
	AirCapacity float64

	scratch []float64
}

// NewAtmos builds an atmosphere at radiative equilibrium.
func NewAtmos(g Grid) *Atmos {
	a := &Atmos{
		Grid: g, TA: make([]float64, g.Cells()),
		RadRelax: 1.0 / (86400 * 10), ExchangeW: 20, AirCapacity: 1e5 * 1.2,
		scratch: make([]float64, g.Cells()),
	}
	for j := 0; j < g.NLat; j++ {
		for i := 0; i < g.NLon; i++ {
			a.TA[g.Idx(j, i)] = a.Equilibrium(g.Lat(j))
		}
	}
	return a
}

// Equilibrium is the radiative-equilibrium profile.
func (a *Atmos) Equilibrium(lat float64) float64 {
	return 253 + 40*math.Cos(lat*math.Pi/180)*math.Cos(lat*math.Pi/180)
}

// Jet is the prescribed zonal wind (m/s) at a latitude: westerlies in
// midlatitudes, easterlies in the tropics.
func Jet(lat float64) float64 {
	r := lat * math.Pi / 180
	return 18*math.Sin(2*r)*math.Sin(2*r) - 6*math.Cos(r)*math.Cos(r)
}

// Step advances the atmosphere by dt seconds given the sea-surface
// temperature regridded onto the atmosphere grid, and writes the
// surface fields for the ocean into the caller's slices: net heat flux
// into the ocean (W/m^2) and the zonal/meridional wind stress (N/m^2),
// all on the atmosphere grid.
func (a *Atmos) Step(dt float64, sst, heatFlux, tauX, tauY []float64) error {
	g := a.Grid
	if len(sst) != g.Cells() {
		return fmt.Errorf("climate: SST length %d != %d", len(sst), g.Cells())
	}
	if len(heatFlux) != g.Cells() || len(tauX) != g.Cells() || len(tauY) != g.Cells() {
		return fmt.Errorf("climate: surface field lengths %d, %d, %d != %d", len(heatFlux), len(tauX), len(tauY), g.Cells())
	}
	copy(a.scratch, a.TA)
	const rhoCd = 1.2 * 1.3e-3
	for j := 0; j < g.NLat; j++ {
		lat := g.Lat(j)
		u := Jet(lat)
		// Upwind CFL fraction: index cells advected per step.
		cells := u * dt / (111e3 * 360 / float64(g.NLon) * math.Max(0.2, math.Cos(lat*math.Pi/180)))
		if cells > 0.9 {
			cells = 0.9
		}
		if cells < -0.9 {
			cells = -0.9
		}
		for i := 0; i < g.NLon; i++ {
			c := g.Idx(j, i)
			// Upwind advection.
			var adv float64
			if cells >= 0 {
				im := (i - 1 + g.NLon) % g.NLon
				adv = cells * (a.scratch[g.Idx(j, im)] - a.scratch[c])
			} else {
				ip := (i + 1) % g.NLon
				adv = -cells * (a.scratch[g.Idx(j, ip)] - a.scratch[c])
			}
			// Air-sea exchange: flux into the ocean is positive when
			// the air is warmer.
			q := a.ExchangeW * (a.scratch[c] - sst[c])
			heatFlux[c] = q
			ta := a.scratch[c] + adv +
				dt*a.RadRelax*(a.Equilibrium(lat)-a.scratch[c]) -
				dt*q/a.AirCapacity
			a.TA[c] = ta
			tauX[c] = rhoCd * math.Abs(u) * u
			tauY[c] = 0
		}
	}
	return nil
}
