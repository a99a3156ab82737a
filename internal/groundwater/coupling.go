package groundwater

import (
	"encoding/binary"
	"fmt"
	"math"

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
			// the drifted inflow head. No step's solve depends on
			// another's, so a pool of solvers runs them ahead while
			// this rank sends the fields in step order.
			st, err := assemble(cfg.Flow)
			if err != nil {
				return fmt.Errorf("TRACE: %w", err)
			}
			heads := make([]float64, cfg.Steps)
			headLeft := cfg.Flow.HeadLeft
			for s := range heads {
				heads[s] = headLeft
				headLeft += cfg.HeadDrift
			}
			ahead := solveAhead(st, heads, cfg.Flow.HeadRight)
			defer ahead.close()
			cgTotal := 0
			for s := range heads {
				step := ahead.next(s)
				if step.err != nil {
					return fmt.Errorf("TRACE step %d: %w", s, step.err)
				}
				cgTotal += step.cgIterations
				if err := c.Send(1, fieldTag, step.payload); err != nil {
					return err
				}
			}
			// Ship the solver-effort tally for the report.
			return c.SendFloat64s(1, fieldTag+1, []float64{float64(cgTotal)})
		case 1: // PARTRACE
			// Every step's field is unpacked into this one: Track
			// reads it and keeps nothing of it.
			n := cfg.Flow.NX * cfg.Flow.NY * cfg.Flow.NZ
			field := &FlowField{NX: cfg.Flow.NX, NY: cfg.Flow.NY, NZ: cfg.Flow.NZ, Dx: cfg.Flow.Dx,
				VX: make([]float64, n), VY: make([]float64, n), VZ: make([]float64, n)}
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
				if err := unpackField(field, msg.Data); err != nil {
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

// packField serializes the velocity components as little-endian
// float32, the wire format whose size the paper's 30 MByte/s figure
// refers to: VX, then VY, then VZ.
func packField(f *FlowField) []byte {
	n := len(f.VX)
	buf := make([]byte, 12*n)
	for k, v := range [3][]float64{f.VX, f.VY, f.VZ} {
		out := buf[4*n*k : 4*n*(k+1)]
		for i, x := range v {
			binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(float32(x)))
		}
	}
	return buf
}

// unpackField decodes the wire format into f's velocities (the head is
// not sent), which must hold the sender's grid.
func unpackField(f *FlowField, buf []byte) error {
	n := len(f.VX)
	if len(buf) != 12*n {
		return fmt.Errorf("groundwater: field payload of %d bytes, want %d", len(buf), 12*n)
	}
	for k, v := range [3][]float64{f.VX, f.VY, f.VZ} {
		in := buf[4*n*k : 4*n*(k+1)]
		for i := range v {
			v[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(in[4*i:])))
		}
	}
	return nil
}
