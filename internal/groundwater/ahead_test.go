package groundwater

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// withProcs runs fn with GOMAXPROCS set to n.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// event is one communication event a run's tracer saw.
type event struct {
	rank       int
	kind       string
	peer, tag  int
	bytes      int
	start, end sim.Time
}

// eventLog records every event; onEvent, if set, sees each one as it
// is recorded, on the rank that made it.
type eventLog struct {
	events  []event
	onEvent func(event)
}

func (l *eventLog) Event(rank int, kind string, peer, tag, bytes int, start, end sim.Time) {
	e := event{rank, kind, peer, tag, bytes, start, end}
	l.events = append(l.events, e)
	if l.onEvent != nil {
		l.onEvent(e)
	}
}

// fieldSends counts rank 0's coupling-field sends among events.
func fieldSends(events []event) int {
	n := 0
	for _, e := range events {
		if e.rank == 0 && e.kind == "send" && e.tag == fieldTag {
			n++
		}
	}
	return n
}

// smallCoupled is a coupled run on a 20x8x6 heterogeneous grid.
func smallCoupled(steps int) CoupledConfig {
	flow := uniformCfg()
	flow.K = LognormalK(flow.NX, flow.NY, flow.NZ, 1e-4, 0.8, 11)
	return CoupledConfig{Flow: flow, Track: TrackConfig{Dt: 1000, Steps: 10, Dispersion: 1e-4, Seed: 3},
		Particles: 40, Steps: steps, HeadDrift: 0.1}
}

// twoHosts is the SP2 and the T3E joined by one link whose output
// queues hold queueBytes.
func twoHosts(queueBytes int64) (*netsim.Network, [2]string) {
	net := netsim.New(sim.NewKernel())
	net.Connect(net.AddNode("ibm-sp2"), net.AddNode("cray-t3e"),
		netsim.LinkConfig{Bps: 1e9, Delay: 100 * time.Microsecond, QueueBytes: queueBytes})
	net.ComputeRoutes()
	return net, [2]string{"ibm-sp2", "cray-t3e"}
}

// float32sToBytes and bytesToFloat32s are the float32 wire helpers
// internal/mpi had while TRACE packed its fields through them, kept
// verbatim for referenceRunCoupled.
func float32sToBytes(v []float32) []byte {
	buf := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(f))
	}
	return buf
}

func bytesToFloat32s(b []byte) ([]float32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("mpi: byte length %d not a multiple of 4", len(b))
	}
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

// referenceRunCoupled is RunCoupled as it was before TRACE solved its
// steps ahead, kept verbatim but for the solver its stencil now hands
// out: one solve after the other on rank 0, the head drifted after
// each, every field packed through a float32 slice, and PARTRACE
// unpacking each step into a new field.
func referenceRunCoupled(net *netsim.Network, hosts [2]string, tracer mpi.Tracer, cfg CoupledConfig) (CoupledResult, error) {
	var result CoupledResult
	took, err := mpi.RunHosts(net, hosts[:], tracer, func(c *mpi.Comm) error {
		switch c.Rank() {
		case 0: // TRACE
			st, err := assemble(cfg.Flow)
			if err != nil {
				return fmt.Errorf("TRACE: %w", err)
			}
			sv := st.newSolver()
			headLeft := cfg.Flow.HeadLeft
			cgTotal := 0
			for s := 0; s < cfg.Steps; s++ {
				field, err := sv.solve(headLeft, cfg.Flow.HeadRight)
				if err != nil {
					return fmt.Errorf("TRACE step %d: %w", s, err)
				}
				cgTotal += field.CGIterations
				n := field.NX * field.NY * field.NZ
				v := make([]float32, 3*n)
				for i := 0; i < n; i++ {
					v[i] = float32(field.VX[i])
					v[n+i] = float32(field.VY[i])
					v[2*n+i] = float32(field.VZ[i])
				}
				if err := c.Send(1, fieldTag, float32sToBytes(v)); err != nil {
					return err
				}
				headLeft += cfg.HeadDrift
			}
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
				v, err := bytesToFloat32s(msg.Data)
				if err != nil {
					return err
				}
				n := cfg.Flow.NX * cfg.Flow.NY * cfg.Flow.NZ
				field := &FlowField{NX: cfg.Flow.NX, NY: cfg.Flow.NY, NZ: cfg.Flow.NZ, Dx: cfg.Flow.Dx,
					VX: make([]float64, n), VY: make([]float64, n), VZ: make([]float64, n)}
				for i := 0; i < n; i++ {
					field.VX[i] = float64(v[i])
					field.VY[i] = float64(v[n+i])
					field.VZ[i] = float64(v[2*n+i])
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

// serialPayloads is what referenceRunCoupled sends: one solve after the
// other on one solver, the head drifted after each, packed through a
// float32 slice.
func serialPayloads(t *testing.T, cfg CoupledConfig) [][]byte {
	t.Helper()
	st, err := assemble(cfg.Flow)
	if err != nil {
		t.Fatal(err)
	}
	sv := st.newSolver()
	var out [][]byte
	headLeft := cfg.Flow.HeadLeft
	for s := 0; s < cfg.Steps; s++ {
		field, err := sv.solve(headLeft, cfg.Flow.HeadRight)
		if err != nil {
			t.Fatal(err)
		}
		n := field.NX * field.NY * field.NZ
		v := make([]float32, 3*n)
		for i := 0; i < n; i++ {
			v[i] = float32(field.VX[i])
			v[n+i] = float32(field.VY[i])
			v[2*n+i] = float32(field.VZ[i])
		}
		out = append(out, float32sToBytes(v))
		headLeft += cfg.HeadDrift
	}
	return out
}

// The solvers run ahead at one core and at four, for one step, for as
// many as the scenario and for more steps than solvers: every step's
// payload must be the serial solve's byte for byte, and the run's
// result and every traced event (sizes and virtual times) the
// reference run's.
func TestCoupledRunMatchesSerialReference(t *testing.T) {
	for _, steps := range []int{1, 6, 9} {
		cfg := smallCoupled(steps)
		want := serialPayloads(t, cfg)
		net, hosts := twoHosts(0)
		refLog := &eventLog{}
		ref, err := referenceRunCoupled(net, hosts, refLog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := fieldSends(refLog.events); n != steps || ref.CGIterTotal <= 0 {
			t.Fatalf("steps %d: the reference sent %d fields, %d CG iterations", steps, n, ref.CGIterTotal)
		}
		for _, procs := range []int{1, 4} {
			withProcs(procs, func() {
				st, err := assemble(cfg.Flow)
				if err != nil {
					t.Fatal(err)
				}
				// The heads the run drifts to by repeated addition, as
				// RunCoupled builds them.
				heads := make([]float64, steps)
				h := cfg.Flow.HeadLeft
				for s := range heads {
					heads[s] = h
					h += cfg.HeadDrift
				}
				ahead := solveAhead(st, heads, cfg.Flow.HeadRight)
				for s := range heads {
					step := ahead.next(s)
					if step.err != nil {
						t.Fatalf("steps %d GOMAXPROCS %d: step %d: %v", steps, procs, s, step.err)
					}
					if !bytes.Equal(step.payload, want[s]) {
						t.Errorf("steps %d GOMAXPROCS %d: step %d's payload differs from the serial solve's", steps, procs, s)
					}
				}
				ahead.close()

				net, hosts := twoHosts(0)
				log := &eventLog{}
				got, err := RunCoupled(net, hosts, log, cfg)
				if err != nil {
					t.Fatalf("steps %d GOMAXPROCS %d: %v", steps, procs, err)
				}
				if got != ref {
					t.Errorf("steps %d GOMAXPROCS %d: %+v, reference %+v", steps, procs, got, ref)
				}
				if !slices.Equal(log.events, refLog.events) {
					t.Errorf("steps %d GOMAXPROCS %d: the traced events differ from the reference's", steps, procs)
				}
			})
		}
	}
}

// settledGoroutines waits up to 50 ms for the goroutine count to fall
// to at most n (the ranks' goroutines finish exiting after the run
// returns) and reports the count it saw last. A solver the failing-send
// run below left behind would still be solving: it leaves 36 solves of
// many milliseconds each undone.
func settledGoroutines(n int) int {
	deadline := time.Now().Add(50 * time.Millisecond)
	for {
		got := runtime.NumGoroutine()
		if got <= n || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

// A solve that fails fails the run with the first failing step's
// error, in step order, whichever solver failed first: a NaN drift
// leaves step 0 solvable and puts a NaN in every later step's
// right-hand side, which CG refuses at its first step, and four
// solvers start on steps 0 to 3 at once. Step 0's field is still sent, no later one, and no solver
// outlives the run.
func TestCoupledRunReportsFirstFailingSolve(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := smallCoupled(9)
	cfg.HeadDrift = math.NaN()
	withProcs(4, func() {
		net, hosts := twoHosts(0)
		log := &eventLog{}
		_, err := RunCoupled(net, hosts, log, cfg)
		if want := "TRACE step 1: groundwater: CG failed: linalg: CG step not finite (pAp=NaN)"; err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
		if n := fieldSends(log.events); n != 1 {
			t.Errorf("%d fields sent before the failing step, want 1", n)
		}
	})
	if got := settledGoroutines(before); got > before {
		t.Errorf("%d goroutines after the failed run, %d before", got, before)
	}
}

// A send that cannot reach its peer fails the run at that step, with
// the solvers ahead of it stopped: after step 2's field is delivered,
// two packets fill the SP2's queue toward the T3E, so both packets of
// step 3's field are dropped and its send can never complete. The
// scenario's grid and 40 steps leave 36 solves undone.
func TestCoupledRunReportsFailingSend(t *testing.T) {
	before := runtime.NumGoroutine()
	const failAt = 3
	cfg := CoupledConfig{Flow: scenarioFlow(), Track: TrackConfig{Dt: 2000, Steps: 5, Seed: 9},
		Particles: 40, Steps: 40, HeadDrift: 0.2}
	withProcs(4, func() {
		// A field is a 64 KiB packet and a 26 KiB one: the second
		// queues behind the first, but not behind a 16 KiB blocker.
		net, hosts := twoHosts(32 << 10)
		src, dst := netsim.NodeID(0), netsim.NodeID(1)
		log := &eventLog{}
		log.onEvent = func(e event) {
			if e.rank == 0 && e.kind == "send" && e.tag == fieldTag && fieldSends(log.events) == failAt {
				for range 2 {
					net.Send(&netsim.Packet{Src: src, Dst: dst, Bytes: 16 << 10})
				}
			}
		}
		_, err := RunCoupled(net, hosts, log, cfg)
		if err == nil || !strings.Contains(err.Error(), "rank 0 on ibm-sp2 in send(ctx 1, peer 1, tag 11)") {
			t.Fatalf("err = %v, want rank 0's field send to deadlock", err)
		}
		if n := fieldSends(log.events); n != failAt {
			t.Errorf("%d fields delivered, want %d", n, failAt)
		}
	})
	if got := settledGoroutines(before); got > before {
		t.Errorf("%d goroutines after the failed run, %d before", got, before)
	}
}
