package groundwater

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/netsim"
)

// CoupledConfig describes a TRACE/PARTRACE metacomputing run: rank 0
// (TRACE, on the SP2 in the testbed) re-solves the flow each coupling
// step under slowly varying boundary conditions and ships the velocity
// field to rank 1 (PARTRACE, on the T3E), which advances the particles.
type CoupledConfig struct {
	Flow      FlowConfig
	Track     TrackConfig
	Particles int
	// Steps is the number of coupling timesteps.
	Steps int
	// HeadDrift is added to the inflow head each step (transient
	// forcing).
	HeadDrift float64
}

// CoupledResult is what rank 1 reports after the run.
type CoupledResult struct {
	Steps        int
	BytesPerStep int
	TotalBytes   int64
	Exited       int
	FinalMeanX   float64
	CGIterTotal  int
	// NetworkSeconds is the virtual time the run took, all of it spent
	// on the network: the two codes' compute is charged none.
	NetworkSeconds float64
}

// fieldTag is the coupling message tag.
const fieldTag = 11

// RunCoupled executes the coupled application on two ranks placed on
// the nodes of net named by hosts (TRACE, PARTRACE), and returns rank
// 1's result. This is the §3 "Transport of solutants in ground water"
// project in miniature. An optional tracer records the communication
// (the VAMPIR workflow: run the coupled application, then inspect the
// timeline and message matrix).
func RunCoupled(net *netsim.Network, hosts [2]string, tracer mpi.Tracer, cfg CoupledConfig) (CoupledResult, error) {
	if cfg.Steps <= 0 {
		return CoupledResult{}, fmt.Errorf("groundwater: coupled run needs steps > 0")
	}
	var result CoupledResult
	took, err := mpi.RunHosts(net, hosts[:], tracer, func(c *mpi.Comm) error {
		switch c.Rank() {
		case 0: // TRACE
			// K and Dx do not change between coupling steps: one
			// stencil serves the run, and a step only re-solves for
			// the drifted inflow head.
			st, err := assemble(cfg.Flow)
			if err != nil {
				return fmt.Errorf("TRACE: %w", err)
			}
			headLeft := cfg.Flow.HeadLeft
			cgTotal := 0
			for s := 0; s < cfg.Steps; s++ {
				field, err := st.solve(headLeft, cfg.Flow.HeadRight)
				if err != nil {
					return fmt.Errorf("TRACE step %d: %w", s, err)
				}
				cgTotal += field.CGIterations
				buf := packField(field)
				if err := c.Send(1, fieldTag, buf); err != nil {
					return err
				}
				headLeft += cfg.HeadDrift
			}
			// Ship the solver-effort tally for the report.
			return c.SendFloat64s(1, fieldTag+1, []float64{float64(cgTotal)})
		case 1: // PARTRACE
			var parts []Particle
			elapsed := 0.0
			var lastRes TrackResult
			var total int64
			var perStep int
			for s := 0; s < cfg.Steps; s++ {
				msg, err := c.Recv(0, fieldTag)
				if err != nil {
					return err
				}
				field, err := unpackField(msg.Data, cfg.Flow)
				if err != nil {
					return fmt.Errorf("PARTRACE step %d: %w", s, err)
				}
				perStep = len(msg.Data)
				total += int64(len(msg.Data))
				if parts == nil {
					parts = InjectPlane(field, cfg.Particles, cfg.Track.Seed)
				}
				lastRes, err = Track(field, parts, cfg.Track, elapsed)
				if err != nil {
					return err
				}
				elapsed += float64(cfg.Track.Steps) * cfg.Track.Dt
			}
			cg, err := c.RecvFloat64s(nil, 0, fieldTag+1)
			if err != nil {
				return err
			}
			result = CoupledResult{
				Steps: cfg.Steps, BytesPerStep: perStep, TotalBytes: total,
				Exited: lastRes.Exited, FinalMeanX: lastRes.MeanX,
				CGIterTotal: int(cg[0]),
			}
			return nil
		}
		return nil
	})
	result.NetworkSeconds = took.Seconds()
	return result, err
}

// packField serializes the velocity components as float32, the wire
// format whose size the paper's 30 MByte/s figure refers to.
func packField(f *FlowField) []byte {
	n := f.NX * f.NY * f.NZ
	v := make([]float32, 3*n)
	for i := 0; i < n; i++ {
		v[i] = float32(f.VX[i])
		v[n+i] = float32(f.VY[i])
		v[2*n+i] = float32(f.VZ[i])
	}
	return mpi.Float32sToBytes(v)
}

// unpackField rebuilds a FlowField (velocities only; head omitted) from
// the wire format.
func unpackField(buf []byte, cfg FlowConfig) (*FlowField, error) {
	v, err := mpi.BytesToFloat32s(buf)
	if err != nil {
		return nil, err
	}
	n := cfg.NX * cfg.NY * cfg.NZ
	if len(v) != 3*n {
		return nil, fmt.Errorf("groundwater: field payload %d values, want %d", len(v), 3*n)
	}
	f := &FlowField{NX: cfg.NX, NY: cfg.NY, NZ: cfg.NZ, Dx: cfg.Dx,
		VX: make([]float64, n), VY: make([]float64, n), VZ: make([]float64, n)}
	for i := 0; i < n; i++ {
		f.VX[i] = float64(v[i])
		f.VY[i] = float64(v[n+i])
		f.VZ[i] = float64(v[2*n+i])
	}
	return f, nil
}
