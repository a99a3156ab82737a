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

// The three loops below each own their buffers for the whole run: a
// field burst goes out as one message encoded straight from the model's
// arrays, and arrives decoded into the array the last step used.

func runOcean(c *mpi.Comm, cfg CoupledConfig, result *CoupledResult) error {
	o := NewOcean(cfg.OceanGrid)
	n := cfg.OceanGrid.Cells()
	var fields []float64
	for s := 0; s < cfg.Steps; s++ {
		// Send SST and ice to the coupler as one burst.
		if err := c.SendFloat64s(2, tagSSTIce, o.SST, o.Ice); err != nil {
			return err
		}
		// Receive heat flux and stress (stress unused by the slab
		// ocean but carried for protocol fidelity).
		var err error
		fields, err = c.RecvFloat64s(fields, 2, tagToOcn)
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
	var fields []float64
	burst := make([]float64, 3*n) // heat flux, tauX, tauY
	for s := 0; s < cfg.Steps; s++ {
		var err error
		fields, err = c.RecvFloat64s(fields, 2, tagToAtm)
		if err != nil {
			return err
		}
		if len(fields) != 2*n {
			return fmt.Errorf("climate: atmos got %d values, want %d", len(fields), 2*n)
		}
		if err := a.Step(cfg.Dt, fields[:n], burst[:n], burst[n:2*n], burst[2*n:]); err != nil {
			return err
		}
		if err := c.SendFloat64s(2, tagFlux, burst); err != nil {
			return err
		}
	}
	return nil
}

func runCoupler(c *mpi.Comm, cfg CoupledConfig, result *CoupledResult) error {
	og, ag := cfg.OceanGrid, cfg.AtmosGrid
	on, an := og.Cells(), ag.Cells()
	var burst, flux []float64
	toAtm, toOcn := make([]float64, 2*an), make([]float64, 3*on)
	var bytesPerExchange int
	for s := 0; s < cfg.Steps; s++ {
		// Ocean -> coupler.
		var err error
		burst, err = c.RecvFloat64s(burst, 0, tagSSTIce)
		if err != nil {
			return err
		}
		if len(burst) != 2*on {
			return fmt.Errorf("climate: coupler got %d ocean values, want %d", len(burst), 2*on)
		}
		bytesPerExchange = 8 * len(burst)
		// Regrid SST and ice to the atmosphere grid.
		for f := 0; f < 2; f++ {
			if err := Regrid(og, burst[f*on:(f+1)*on], ag, toAtm[f*an:(f+1)*an]); err != nil {
				return err
			}
		}
		if err := c.SendFloat64s(1, tagToAtm, toAtm); err != nil {
			return err
		}
		// Atmos -> coupler.
		flux, err = c.RecvFloat64s(flux, 1, tagFlux)
		if err != nil {
			return err
		}
		if len(flux) != 3*an {
			return fmt.Errorf("climate: coupler got %d atmos values, want %d", len(flux), 3*an)
		}
		bytesPerExchange += 8 * len(flux)
		// Regrid heat flux, tauX and tauY to the ocean grid.
		for f := 0; f < 3; f++ {
			if err := Regrid(ag, flux[f*an:(f+1)*an], og, toOcn[f*on:(f+1)*on]); err != nil {
				return err
			}
		}
		if err := c.SendFloat64s(0, tagToOcn, toOcn); err != nil {
			return err
		}
	}
	result.Steps = cfg.Steps
	result.BytesPerExchange = bytesPerExchange
	return nil
}
