package climate

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/netsim"
)

// The flux coupler (CSM-style) is its own process: it receives surface
// fields from each model, regrids them to the other model's grid, and
// forwards them. Ranks: 0 = ocean (Cray T3E in the testbed), 1 =
// atmosphere (IBM SP2), 2 = coupler (the CSM flux coupler).

// Message tags of the coupling protocol.
const (
	tagSSTIce = 21 // ocean -> coupler: SST, ice (ocean grid)
	tagToAtm  = 22 // coupler -> atmos: SST, ice (atmos grid)
	tagFlux   = 23 // atmos -> coupler: heat flux, tauX, tauY (atmos grid)
	tagToOcn  = 24 // coupler -> ocean: heat flux, tauX, tauY (ocean grid)
)

// CoupledConfig describes a coupled run.
type CoupledConfig struct {
	OceanGrid Grid
	AtmosGrid Grid
	// Dt is the model timestep in seconds; fields are exchanged every
	// step, as in the paper ("exchange of 2-D surface data every
	// timestep").
	Dt float64
	// Steps is the number of coupled steps.
	Steps int
}

// CoupledResult reports the outcome observed at the coupler.
type CoupledResult struct {
	Steps int
	// BytesPerExchange is the WAN payload per coupling step in each
	// direction pair (ocean->atm plus atm->ocean).
	BytesPerExchange int
	// FinalMeanSST is the area mean SST after the run.
	FinalMeanSST float64
	// FinalIceFraction is the area mean ice cover after the run.
	FinalIceFraction float64
	// MinSST and MaxSST bound the final SST field.
	MinSST, MaxSST float64
	// NetworkSeconds is the virtual time the run took, all of it spent
	// on the network: the models' compute is charged none.
	NetworkSeconds float64
}

// RunCoupled executes the three-process coupled model on the nodes of
// net named by hosts (ocean, atmos, coupler).
func RunCoupled(net *netsim.Network, hosts [3]string, cfg CoupledConfig) (CoupledResult, error) {
	if cfg.Steps <= 0 || cfg.Dt <= 0 {
		return CoupledResult{}, fmt.Errorf("climate: bad coupled config steps=%d dt=%v", cfg.Steps, cfg.Dt)
	}
	var result CoupledResult
	took, err := mpi.RunHosts(net, hosts[:], nil, func(c *mpi.Comm) error {
		switch c.Rank() {
		case 0:
			return runOcean(c, cfg, &result)
		case 1:
			return runAtmos(c, cfg)
		case 2:
			return runCoupler(c, cfg, &result)
		}
		return nil
	})
	result.NetworkSeconds = took.Seconds()
	return result, err
}

func runOcean(c *mpi.Comm, cfg CoupledConfig, result *CoupledResult) error {
	o := NewOcean(cfg.OceanGrid)
	n := cfg.OceanGrid.Cells()
	for s := 0; s < cfg.Steps; s++ {
		// Send SST and ice to the coupler as one burst.
		burst := make([]float64, 0, 2*n)
		burst = append(burst, o.SST...)
		burst = append(burst, o.Ice...)
		if err := c.SendFloat64s(2, tagSSTIce, burst); err != nil {
			return err
		}
		// Receive heat flux and stress (stress unused by the slab
		// ocean but carried for protocol fidelity).
		fields, err := c.RecvFloat64s(2, tagToOcn)
		if err != nil {
			return err
		}
		if len(fields) != 3*n {
			return fmt.Errorf("climate: ocean got %d values, want %d", len(fields), 3*n)
		}
		if err := o.Step(cfg.Dt, fields[:n]); err != nil {
			return err
		}
	}
	result.FinalMeanSST = AreaMean(cfg.OceanGrid, o.SST)
	result.FinalIceFraction = AreaMean(cfg.OceanGrid, o.Ice)
	min, max := o.SST[0], o.SST[0]
	for _, t := range o.SST {
		if t < min {
			min = t
		}
		if t > max {
			max = t
		}
	}
	result.MinSST, result.MaxSST = min, max
	return nil
}

func runAtmos(c *mpi.Comm, cfg CoupledConfig) error {
	a := NewAtmos(cfg.AtmosGrid)
	n := cfg.AtmosGrid.Cells()
	for s := 0; s < cfg.Steps; s++ {
		fields, err := c.RecvFloat64s(2, tagToAtm)
		if err != nil {
			return err
		}
		if len(fields) != 2*n {
			return fmt.Errorf("climate: atmos got %d values, want %d", len(fields), 2*n)
		}
		sst := fields[:n]
		heat, tauX, tauY, err := a.Step(cfg.Dt, sst)
		if err != nil {
			return err
		}
		burst := make([]float64, 0, 3*n)
		burst = append(burst, heat...)
		burst = append(burst, tauX...)
		burst = append(burst, tauY...)
		if err := c.SendFloat64s(2, tagFlux, burst); err != nil {
			return err
		}
	}
	return nil
}

func runCoupler(c *mpi.Comm, cfg CoupledConfig, result *CoupledResult) error {
	og, ag := cfg.OceanGrid, cfg.AtmosGrid
	on, an := og.Cells(), ag.Cells()
	var bytesPerExchange int
	for s := 0; s < cfg.Steps; s++ {
		// Ocean -> coupler.
		burst, err := c.RecvFloat64s(0, tagSSTIce)
		if err != nil {
			return err
		}
		if len(burst) != 2*on {
			return fmt.Errorf("climate: coupler got %d ocean values, want %d", len(burst), 2*on)
		}
		bytesPerExchange = 8 * len(burst)
		// Regrid to the atmosphere grid.
		sstA, err := Regrid(og, burst[:on], ag)
		if err != nil {
			return err
		}
		iceA, err := Regrid(og, burst[on:], ag)
		if err != nil {
			return err
		}
		out := append(sstA, iceA...)
		if err := c.SendFloat64s(1, tagToAtm, out); err != nil {
			return err
		}
		// Atmos -> coupler.
		flux, err := c.RecvFloat64s(1, tagFlux)
		if err != nil {
			return err
		}
		if len(flux) != 3*an {
			return fmt.Errorf("climate: coupler got %d atmos values, want %d", len(flux), 3*an)
		}
		bytesPerExchange += 8 * len(flux)
		heatO, err := Regrid(ag, flux[:an], og)
		if err != nil {
			return err
		}
		tauXO, err := Regrid(ag, flux[an:2*an], og)
		if err != nil {
			return err
		}
		tauYO, err := Regrid(ag, flux[2*an:], og)
		if err != nil {
			return err
		}
		toOcn := append(append(heatO, tauXO...), tauYO...)
		if err := c.SendFloat64s(0, tagToOcn, toOcn); err != nil {
			return err
		}
	}
	result.Steps = cfg.Steps
	result.BytesPerExchange = bytesPerExchange
	return nil
}
