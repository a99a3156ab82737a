package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"time"

	"repro/internal/atm"
	"repro/internal/climate"
	"repro/internal/cocolib"
	"repro/internal/fire"
	"repro/internal/groundwater"
	"repro/internal/machine"
	"repro/internal/meg"
	"repro/internal/mpi"
	"repro/internal/mpitrace"
	"repro/internal/mri"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/video"
	"repro/internal/viz"
)

// The section-3 application workloads as registered scenarios. The
// coupled codes run on the metacomputing MPI, their ranks placed on the
// hosts of a private testbed of the run's generation (WAN, Extensions):
// every message between sites crosses that testbed's HiPPI -> gateway ->
// ATM -> backbone path as simulated packets, and the virtual time that
// takes is reported. Compute is charged no virtual time — these codes
// have no cost model (Table 1's is FIRE-only). Private testbeds and
// private kernels mean nothing here drives the engine-provided testbed.

// coupledNet builds the private testbed a coupled scenario's ranks run
// on; it lives as long as the run.
func coupledNet(opts Options) *netsim.Network {
	return New(Config{WAN: opts.WAN, Extensions: opts.Extensions}).Net
}

func init() {
	MustRegister(NewScenario("climate-coupled",
		"Section 3: coupled ocean/atmosphere climate model through a CSM-style flux coupler",
		func(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cfg := climate.CoupledConfig{
				OceanGrid: climate.Grid{NLat: 64, NLon: 128},
				AtmosGrid: climate.Grid{NLat: 32, NLon: 64},
				Dt:        3600,
				Steps:     48, // two simulated days
			}
			res, err := climate.RunCoupled(coupledNet(opts), [3]string{HostT3E600, HostSP2, HostT90}, cfg)
			if err != nil {
				return nil, err
			}
			return &ClimateReport{Steps: cfg.Steps, DtSecs: cfg.Dt, Result: res}, nil
		}))

	MustRegister(NewScenario("groundwater-coupled",
		"Section 3: TRACE (flow, SP2) coupled to PARTRACE (particle tracking, T3E) with VAMPIR-style tracing",
		func(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			flow := groundwater.FlowConfig{
				NX: 40, NY: 16, NZ: 12, Dx: 1.0,
				K:        groundwater.LognormalK(40, 16, 12, 1e-4, 1.0, 42),
				HeadLeft: 12, HeadRight: 0, Porosity: 0.3,
			}
			cfg := groundwater.CoupledConfig{
				Flow:      flow,
				Track:     groundwater.TrackConfig{Dt: 2000, Steps: 25, Dispersion: 1e-4, Seed: 9},
				Particles: 500,
				Steps:     6,
				HeadDrift: 0.2,
			}
			rec := mpitrace.NewRecorder()
			res, err := groundwater.RunCoupled(coupledNet(opts), [2]string{HostSP2, HostT3E600}, rec, cfg)
			if err != nil {
				return nil, err
			}
			summary := "  VAMPIR-style communication summary (virtual time; compute is charged none):\n" +
				mpitrace.FormatStats(rec.Stats()) + rec.Gantt(64)
			return &GroundwaterReport{Result: res, TraceSummary: summary}, nil
		}))

	MustRegister(NewScenario("fsi-cocolib",
		"Section 3: MetaCISPAR fluid-structure coupling through the COCOLIB interface",
		func(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			const fluidNodes, structNodes = 65, 41
			res, err := cocolib.RunFSI(coupledNet(opts), [2]string{HostSP2, HostT3E1200},
				fluidNodes, structNodes, 2500, 0.001)
			if err != nil {
				return nil, err
			}
			return &FSIReport{FluidNodes: fluidNodes, StructNodes: structNodes, Result: res}, nil
		}))

	MustRegister(NewScenario("meg-music",
		"Section 3: pmusic MEG dipole localisation and the MPP+vector metacomputing speedup",
		func(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
			return runMEGScenario(ctx, tb)
		}))

	MustRegister(NewScenario("video-d1",
		"Section 3: uncompressed 270 Mbit/s D1 studio video across carrier generations",
		func(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
			rep := &VideoReport{}
			frames := opts.Frames
			for _, oc := range []atm.OC{atm.OC3, atm.OC12, atm.OC48} {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				row, err := videoCarrierRun(oc, frames)
				if err != nil {
					return nil, err
				}
				rep.Rows = append(rep.Rows, row)
			}
			return rep, nil
		}))

	MustRegister(NewScenario("fire-rt-session",
		"Section 4: realtime fMRI session over the RT protocol on real loopback TCP sockets",
		func(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
			return runRTSession(ctx, opts.Frames)
		}))
}

// videoCarrierRun streams D1 frames over a private two-node network on
// the given carrier.
func videoCarrierRun(oc atm.OC, frames int) (VideoRow, error) {
	k := sim.NewKernel()
	n := netsim.New(k)
	a := n.AddNode("studio-gmd")
	b := n.AddNode("echtzeit-koeln")
	n.Connect(a, b, netsim.LinkConfig{
		Bps: oc.PayloadRate(), Delay: 500 * time.Microsecond, MTU: 9180,
		Framer: ATMFramer{}, QueueBytes: 32 << 20,
	})
	n.ComputeRoutes()
	res, err := video.Stream(n, a.ID, b.ID, video.StreamConfig{Frames: frames})
	if err != nil {
		return VideoRow{}, err
	}
	return VideoRow{
		Carrier: oc.String(), PayloadMbps: oc.PayloadRate() / 1e6,
		Frames: res.Frames, OnTime: res.OnTime, LostPackets: res.LostPackets,
		PeakJitter: res.PeakJitter.Seconds() * 1000,
	}, nil
}

// runMEGScenario synthesizes a measurement with one active dipole,
// scans a brain grid with MUSIC on 4 MPI ranks, and evaluates the
// metacomputing speedup model on the path the testbed measures between
// the T3E and the SP2.
func runMEGScenario(ctx context.Context, tb *Testbed) (Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	arr := meg.NewHelmetArray(64, 0.12)
	truth := meg.Vec3{X: 0.025, Y: -0.01, Z: 0.05}
	q := meg.Vec3{X: 1, Y: 0, Z: 0}.Cross(truth)
	q = q.Scale(2e-8 / q.Norm())
	nt := 120
	course := make([]float64, nt)
	for i := range course {
		course[i] = math.Sin(float64(i) * 0.25)
	}
	x, err := meg.Synthesize(arr, []meg.Dipole{{Pos: truth, Moment: q, Course: course}}, nt, 2e-15, 11)
	if err != nil {
		return nil, err
	}
	us, _, err := meg.SignalSubspace(meg.Covariance(x), 1)
	if err != nil {
		return nil, err
	}
	grid := meg.BrainGrid(0.09, 0.01)

	var best meg.Vec3
	var val float64
	err = mpi.Run(4, func(c *mpi.Comm) error {
		res, err := meg.ParallelScan(c, arr, us, grid)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			best, val = res.Best()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &MEGReport{
		GridPoints: len(grid),
		TrueMM:     [3]float64{truth.X * 1000, truth.Y * 1000, truth.Z * 1000},
		BestMM:     [3]float64{best.X * 1000, best.Y * 1000, best.Z * 1000},
		PeakVal:    val,
		ErrorMM:    best.Sub(truth).Norm() * 1000,
	}
	// The MPP+vector model crosses the measured T3E <-> SP2 path: half
	// its round trip, at the rate the SP2's I/O lets through.
	rtt, err := tb.RTT(HostT3E600, HostSP2)
	if err != nil {
		return nil, err
	}
	sp2, _ := tb.Machine(HostSP2)
	m := meg.DistributedModel{
		MPP:        machine.CrayT3E600(),
		Vector:     machine.CrayT90(),
		WANLatency: rtt / 2,
		WANBps:     sp2.IOBps,
		Sensors:    148, Signals: 5, GridPoints: len(grid), Iterations: 10,
	}
	for _, pes := range []int{16, 64, 256} {
		rep.Speedups = append(rep.Speedups, MEGSpeedup{PEs: pes, Speedup: m.SuperlinearSpeedup(pes)})
	}
	return rep, nil
}

// runRTSession drives the full scanner -> RT-server -> RT-client chain
// over real loopback TCP sockets with motion correction, incremental
// correlation, and a final rendered overlay.
func runRTSession(ctx context.Context, scans int) (Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if scans < 3 {
		return nil, fmt.Errorf("core: fire-rt-session needs >= 3 scans for a correlation map, got %d", scans)
	}
	// A subject with two activation sites with different hemodynamics
	// (the historical firesim measurement), signal drift, and slight
	// head motion mid-way (the historical fmri-example measurement).
	acts := []mri.Activation{
		{CX: 32, CY: 28, CZ: 8, Radius: 5, Amplitude: 0.05, HRF: mri.DefaultHRF},
		{CX: 20, CY: 40, CZ: 10, Radius: 4, Amplitude: 0.04, HRF: mri.HRF{Delay: 8, Dispersion: 1.5}},
	}
	ph := mri.NewPhantom(64, 64, 16, acts)
	motion := make([]mri.Shift, scans)
	for i := scans / 2; i < scans; i++ {
		motion[i] = mri.Shift{DX: 0.8, DY: -0.4}
	}
	sc := mri.NewScanner(ph, mri.ScanConfig{
		NX: 64, NY: 64, NZ: 16, TR: 2, NScans: scans,
		NoiseStd: 3, DriftPerScan: 0.3, Motion: motion, Seed: 7,
	})
	srv := &fire.RTServer{Scanner: sc}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	srvErr := make(chan error, 1)
	go func() {
		_, err := srv.ListenAndServe(l)
		srvErr <- err
	}()
	// fail joins a client-side error with the server's — otherwise the
	// root cause surfaces only as an EOF. The server goroutine reports
	// only after ListenAndServe returns, so wait briefly for it rather
	// than racing it with a non-blocking read.
	fail := func(err error) (Report, error) {
		select {
		case serr := <-srvErr:
			if serr != nil {
				return nil, fmt.Errorf("%w (RT-server: %v)", err, serr)
			}
		case <-time.After(500 * time.Millisecond):
		}
		return nil, err
	}

	client, err := fire.DialRT(l.Addr().String())
	if err != nil {
		return fail(err)
	}
	defer client.Close()

	res, err := fire.RunSession(ctx, client, sc.Reference(0), ph.Anatomy)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return fail(err)
	}
	rep := &RTSessionReport{Scans: len(res.Shifts)}
	for _, s := range res.Shifts {
		if norm := math.Sqrt(s[0]*s[0] + s[1]*s[1] + s[2]*s[2]); norm > rep.MaxShiftVoxels {
			rep.MaxShiftVoxels = norm
		}
	}
	m := res.Corr
	const clip = 0.5
	for _, v := range m.Data {
		if float64(v) >= clip {
			rep.ActivatedVoxels++
		}
		if float64(v) > rep.PeakCorrelation {
			rep.PeakCorrelation = float64(v)
		}
	}
	img, err := viz.RenderOverlay(ph.Anatomy, m, 8, clip)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := viz.WritePNG(&buf, img); err != nil {
		return nil, err
	}
	rep.PNG = buf.Bytes()
	rep.PNGBytes = buf.Len()
	return rep, nil
}
