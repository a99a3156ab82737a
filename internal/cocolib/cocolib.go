// Package cocolib reimplements the MetaCISPAR project's coupling
// interface: COCOLIB, "an open interface that allows the coupling of
// industrial structural mechanics and fluid dynamics codes", ported to
// the metacomputing environment (section 3 of the paper).
//
// The library couples two independently written solvers through a
// shared interface mesh: each solver registers the quantities it
// produces and consumes on the coupling boundary; the library
// interpolates between the (generally non-matching) surface
// discretizations and performs the exchange over the metacomputing MPI,
// so the codes can run on different machines of the metacomputer.
//
// A complete fluid-structure-interaction pair is included: a 1-D
// channel-flow pressure solver (the "CFD code") and an elastic-panel
// solver (the "structural mechanics code"), coupled through COCOLIB the
// way MetaCISPAR coupled industrial codes.
package cocolib

import (
	"fmt"
	"math"

	"repro/internal/mpi"
	"repro/internal/netsim"
)

// InterfaceMesh is a 1-D parameterization of the coupling surface:
// node positions in [0, 1] (sorted, unique).
type InterfaceMesh struct {
	Nodes []float64
}

// UniformMesh builds an n-node uniform interface mesh.
func UniformMesh(n int) InterfaceMesh {
	if n < 2 {
		panic("cocolib: interface mesh needs >= 2 nodes")
	}
	nodes := make([]float64, n)
	for i := range nodes {
		nodes[i] = float64(i) / float64(n-1)
	}
	return InterfaceMesh{Nodes: nodes}
}

// Validate checks mesh invariants.
func (m InterfaceMesh) Validate() error {
	if len(m.Nodes) < 2 {
		return fmt.Errorf("cocolib: mesh has %d nodes, need >= 2", len(m.Nodes))
	}
	for i := 1; i < len(m.Nodes); i++ {
		if m.Nodes[i] <= m.Nodes[i-1] {
			return fmt.Errorf("cocolib: mesh nodes not strictly increasing at %d", i)
		}
	}
	if m.Nodes[0] < 0 || m.Nodes[len(m.Nodes)-1] > 1 {
		return fmt.Errorf("cocolib: mesh nodes outside [0,1]")
	}
	return nil
}

// Interpolate maps a nodal field from mesh src onto mesh dst by
// piecewise-linear interpolation (clamped at the ends). Constant
// fields map exactly; linear fields map exactly on interior nodes.
func Interpolate(src InterfaceMesh, field []float64, dst InterfaceMesh) ([]float64, error) {
	if len(field) != len(src.Nodes) {
		return nil, fmt.Errorf("cocolib: field length %d != %d mesh nodes", len(field), len(src.Nodes))
	}
	out := make([]float64, len(dst.Nodes))
	for i, x := range dst.Nodes {
		out[i] = sample(src, field, x)
	}
	return out, nil
}

func sample(m InterfaceMesh, field []float64, x float64) float64 {
	n := len(m.Nodes)
	if x <= m.Nodes[0] {
		return field[0]
	}
	if x >= m.Nodes[n-1] {
		return field[n-1]
	}
	// Binary search for the segment.
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if m.Nodes[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (x - m.Nodes[lo]) / (m.Nodes[hi] - m.Nodes[lo])
	return field[lo]*(1-t) + field[hi]*t
}

// Coupler is one side's handle on a COCOLIB coupling: it knows the
// local and remote interface meshes and exchanges nodal fields over an
// MPI communicator with a fixed peer rank.
type Coupler struct {
	comm   *mpi.Comm
	peer   int
	local  InterfaceMesh
	remote InterfaceMesh
	tag    int
	steps  int
	bytes  int64
}

// meshTag is the handshake tag for mesh exchange.
const meshTag = 31

// NewCoupler creates the coupling handle and performs the mesh
// handshake: both sides exchange their interface discretizations, so
// each side can interpolate incoming fields itself (COCOLIB's
// "loose coupling of non-matching grids").
func NewCoupler(c *mpi.Comm, peer, tag int, local InterfaceMesh) (*Coupler, error) {
	if err := local.Validate(); err != nil {
		return nil, err
	}
	if err := c.SendFloat64s(peer, meshTag, local.Nodes); err != nil {
		return nil, err
	}
	nodes, err := c.RecvFloat64s(nil, peer, meshTag)
	if err != nil {
		return nil, err
	}
	remote := InterfaceMesh{Nodes: nodes}
	if err := remote.Validate(); err != nil {
		return nil, fmt.Errorf("cocolib: peer sent invalid mesh: %w", err)
	}
	return &Coupler{comm: c, peer: peer, local: local, remote: remote, tag: tag}, nil
}

// Exchange sends the local nodal field and receives the peer's,
// interpolated onto the local mesh. Both sides must call Exchange the
// same number of times (classic coupled-timestep lockstep).
func (cp *Coupler) Exchange(field []float64) ([]float64, error) {
	if len(field) != len(cp.local.Nodes) {
		return nil, fmt.Errorf("cocolib: field length %d != local mesh %d", len(field), len(cp.local.Nodes))
	}
	msg, err := cp.comm.Sendrecv(cp.peer, cp.tag, mpi.Float64sToBytes(field), cp.peer, cp.tag)
	if err != nil {
		return nil, err
	}
	incoming, err := mpi.BytesToFloat64s(msg.Data)
	if err != nil {
		return nil, err
	}
	if len(incoming) != len(cp.remote.Nodes) {
		return nil, fmt.Errorf("cocolib: peer field length %d != remote mesh %d", len(incoming), len(cp.remote.Nodes))
	}
	cp.steps++
	cp.bytes += int64(8 * (len(field) + len(incoming)))
	return Interpolate(cp.remote, incoming, cp.local)
}

// Stats reports exchanges performed and bytes moved.
func (cp *Coupler) Stats() (steps int, bytes int64) { return cp.steps, cp.bytes }

// ---------------------------------------------------------------------
// The demonstration FSI pair.

// PanelSolver is the "structural mechanics code": an elastic panel
// (pinned at both ends) deflecting under a pressure load, integrated
// with damped explicit dynamics of the discrete Laplacian.
type PanelSolver struct {
	Mesh      InterfaceMesh
	W         []float64 // deflection at nodes
	v         []float64 // velocity
	Stiffness float64
	Damping   float64
}

// NewPanelSolver builds a panel on the given mesh.
func NewPanelSolver(m InterfaceMesh) *PanelSolver {
	return &PanelSolver{
		Mesh:      m,
		W:         make([]float64, len(m.Nodes)),
		v:         make([]float64, len(m.Nodes)),
		Stiffness: 4000, Damping: 8,
	}
}

// Step advances the panel by dt under the nodal pressure load.
func (p *PanelSolver) Step(dt float64, pressure []float64) error {
	n := len(p.Mesh.Nodes)
	if len(pressure) != n {
		return fmt.Errorf("cocolib: pressure length %d != %d", len(pressure), n)
	}
	h := 1.0 / float64(n-1)
	for i := 1; i < n-1; i++ {
		lap := (p.W[i-1] - 2*p.W[i] + p.W[i+1]) / (h * h)
		acc := p.Stiffness*lap/1e4 + pressure[i] - p.Damping*p.v[i]
		p.v[i] += dt * acc
	}
	for i := 1; i < n-1; i++ {
		p.W[i] += dt * p.v[i]
	}
	p.W[0], p.W[n-1] = 0, 0 // pinned
	return nil
}

// ChannelSolver is the "fluid dynamics code": quasi-1-D channel flow
// whose local pressure rises where the deflected panel narrows the
// channel (linearized Bernoulli closure).
type ChannelSolver struct {
	Mesh     InterfaceMesh
	Inlet    float64 // inlet pressure
	Gain     float64 // pressure response to narrowing
	Pressure []float64
}

// NewChannelSolver builds the fluid side on the given mesh.
func NewChannelSolver(m InterfaceMesh, inlet float64) *ChannelSolver {
	return &ChannelSolver{
		Mesh: m, Inlet: inlet, Gain: 0.5,
		Pressure: make([]float64, len(m.Nodes)),
	}
}

// Step computes the pressure field given the panel deflection sampled
// on the fluid mesh (positive deflection opens the channel and lowers
// the pressure).
func (f *ChannelSolver) Step(deflection []float64) error {
	n := len(f.Mesh.Nodes)
	if len(deflection) != n {
		return fmt.Errorf("cocolib: deflection length %d != %d", len(deflection), n)
	}
	for i := 0; i < n; i++ {
		x := f.Mesh.Nodes[i]
		base := f.Inlet * (1 - 0.3*x) // streamwise pressure drop
		f.Pressure[i] = base - f.Gain*f.Inlet*deflection[i]
	}
	return nil
}

// FSIResult summarizes a coupled MetaCISPAR-style run.
type FSIResult struct {
	Steps          int
	BytesExchanged int64
	MaxDeflection  float64
	TipResidual    float64 // last-step deflection change (convergence)
	// NetworkSeconds is the virtual time the run took, all of it spent
	// on the network: the solvers' compute is charged none.
	NetworkSeconds float64
}

// RunFSI couples the two solvers over MPI (rank 0 = fluid, rank 1 =
// structure) on the nodes of net named by hosts, using non-matching
// interface meshes, and returns the converged state.
func RunFSI(net *netsim.Network, hosts [2]string, fluidNodes, structNodes, steps int, dt float64) (FSIResult, error) {
	if steps <= 0 || dt <= 0 {
		return FSIResult{}, fmt.Errorf("cocolib: bad FSI parameters steps=%d dt=%v", steps, dt)
	}
	var res FSIResult
	took, err := mpi.RunHosts(net, hosts[:], nil, func(c *mpi.Comm) error {
		switch c.Rank() {
		case 0: // fluid
			mesh := UniformMesh(fluidNodes)
			cp, err := NewCoupler(c, 1, 41, mesh)
			if err != nil {
				return err
			}
			fluid := NewChannelSolver(mesh, 1.0)
			deflection := make([]float64, fluidNodes)
			for s := 0; s < steps; s++ {
				if err := fluid.Step(deflection); err != nil {
					return err
				}
				// Send pressure, receive deflection.
				deflection, err = cp.Exchange(fluid.Pressure)
				if err != nil {
					return err
				}
			}
			return nil
		case 1: // structure
			mesh := UniformMesh(structNodes)
			cp, err := NewCoupler(c, 0, 41, mesh)
			if err != nil {
				return err
			}
			panel := NewPanelSolver(mesh)
			var prevMax float64
			for s := 0; s < steps; s++ {
				// Send deflection, receive pressure.
				pressure, err := cp.Exchange(panel.W)
				if err != nil {
					return err
				}
				if err := panel.Step(dt, pressure); err != nil {
					return err
				}
				var max float64
				for _, w := range panel.W {
					if math.Abs(w) > max {
						max = math.Abs(w)
					}
				}
				if s == steps-1 {
					res.TipResidual = math.Abs(max - prevMax)
					res.MaxDeflection = max
				}
				prevMax = max
			}
			res.Steps, res.BytesExchanged = cp.Stats()
			return nil
		}
		return nil
	})
	res.NetworkSeconds = took.Seconds()
	return res, err
}
