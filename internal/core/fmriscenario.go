package core

import (
	"fmt"
	"time"

	"repro/internal/fire"
	"repro/internal/mri"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// FMRIScenario is the full figure-2 dataflow as a discrete-event
// simulation over the testbed network — the paper's "quite complex
// configuration: up to 5 computers and an MRI-scanner have to cooperate
// simultaneously":
//
//	scanner -> front-end workstation (RT-server, Jülich)
//	        -> Cray T3E (processing, Table-1 cost model)
//	        -> RT-client workstation (2-D display)
//	        -> SGI Onyx 2 Sankt Augustin (3-D merge + render)
//	        -> Responsive Workbench Jülich (frame stream back)
//
// Raw volumes, functional results and rendered frames all travel as
// packet trains over the simulated WAN, and the T3E compute time comes
// from the calibrated cost model, so the end-to-end delay is derived
// rather than assumed (unlike the budget arithmetic in figure2EndToEndOn,
// which uses the paper's own stage constants).
type FMRIScenario struct {
	// PEs is the T3E partition size.
	PEs int
	// TR is the scanner repetition time in seconds.
	TR float64
	// Frames is the number of volumes to acquire.
	Frames int
	// NX, NY, NZ is the acquisition matrix (default 64x64x16).
	NX, NY, NZ int
	// ScannerDelay is the scan-end -> RT-server availability delay
	// (default mri.AvailabilityDelay).
	ScannerDelay float64
	// ControlOverhead models the RT protocol's control message and
	// software handling time per hop (the dominant share of the
	// paper's 1.1 s transfer budget; default 0.35 s per hop pair).
	ControlOverhead float64
	// DisplayTime is the client-side display cost (default 0.6 s).
	DisplayTime float64
}

// FMRIScenarioResult reports the simulated dataflow timing.
type FMRIScenarioResult struct {
	Frames int
	// MeanGUIDelay is scan-end -> 2-D display, the paper's "< 5 s".
	MeanGUIDelay float64
	MaxGUIDelay  float64
	// MeanVRDelay is scan-end -> rendered frame back at the Jülich
	// workbench (the 3-D path through the Onyx 2).
	MeanVRDelay float64
	// ComputeSeconds is the modeled per-volume T3E time.
	ComputeSeconds float64
	// WireSeconds is the per-volume total network transfer time
	// (raw volume + functional maps + rendered frames).
	WireSeconds float64
}

// RunFMRIScenario executes the scenario on a fresh testbed of the given
// generation (the dataflow crosses the backbone twice per frame). Each
// of the chain's four transfers is simulated once per run and replayed
// by its duration in later frames, which is exact here (see send).
func RunFMRIScenario(cfg Config, sc FMRIScenario) (FMRIScenarioResult, error) {
	if sc.PEs < 1 || sc.Frames < 1 || sc.TR <= 0 {
		return FMRIScenarioResult{}, fmt.Errorf("core: bad fMRI scenario %+v", sc)
	}
	if sc.NX == 0 && sc.NY == 0 && sc.NZ == 0 {
		sc.NX, sc.NY, sc.NZ = 64, 64, 16
	} else if sc.NX < 1 || sc.NY < 1 || sc.NZ < 1 {
		return FMRIScenarioResult{}, fmt.Errorf("core: bad fMRI matrix %dx%dx%d", sc.NX, sc.NY, sc.NZ)
	}
	if sc.ScannerDelay == 0 {
		sc.ScannerDelay = mri.AvailabilityDelay
	}
	if sc.ControlOverhead == 0 {
		sc.ControlOverhead = 0.35
	}
	if sc.DisplayTime == 0 {
		sc.DisplayTime = 0.6
	}
	tb := New(cfg)
	model := fire.DefaultT3E600()
	computeS := model.TotalTime(sc.PEs, sc.NX, sc.NY, sc.NZ)

	hosts := make(map[string]netsim.NodeID)
	for _, name := range []string{HostWSJuelich, HostT3E600, HostOnyx2, HostWS2Juelich} {
		id, err := tb.Host(name)
		if err != nil {
			return FMRIScenarioResult{}, err
		}
		hosts[name] = id
	}
	rawBytes := sc.NX * sc.NY * sc.NZ * 4 // float32 voxels
	funcBytes := rawBytes                 // correlation map, same matrix
	frameBytes := 2 * 1024 * 768 * 3      // one stereo pair for the workbench

	// Every frame sends the same four packet trains, so each hop's first
	// train is simulated and later ones are replayed by its duration.
	// That keeps every timestamp and every frame the chain takes:
	//  1. the chain is this private network's only user and unpipelined,
	//     so each train starts on an idle network;
	//  2. netsim's times are integer nanoseconds and each per-packet cost
	//     depends only on the packet's size, so an idle-network train
	//     takes the same time whenever it starts;
	//  3. the scanner reaches the chain only through ready, and its send
	//     for a frame ready at T was scheduled at T-ScannerDelay: before a
	//     train of d < ScannerDelay started, so it precedes the chain's
	//     wake-up at T from the last packet or from Sleep(d) alike. A
	//     longer train is simulated every time.
	var hopDur [4]time.Duration // each hop's first train; 0 before it ran
	send := func(p *sim.Proc, hop int, src, dst string, nbytes int) {
		if d := hopDur[hop]; d > 0 && d < sim.Duration(sc.ScannerDelay) {
			p.Sleep(d)
			return
		}
		t0 := p.Now()
		netsim.Train(tb.Net, hosts[src], hosts[dst], nbytes).Recv(p)
		hopDur[hop] = p.Now().Sub(t0)
	}

	type frameStamp struct {
		scanEnd sim.Time
		gui     sim.Time
		vr      sim.Time
	}
	stamps := make([]frameStamp, sc.Frames)
	ready := sim.NewChan[int](tb.K, 0)

	// Scanner process: a volume every TR, available ScannerDelay later.
	tb.K.Go("scanner", func(p *sim.Proc) {
		for f := 0; f < sc.Frames; f++ {
			p.Sleep(sim.Duration(sc.TR))
			stamps[f].scanEnd = p.Now()
			f := f
			p.Kernel().After(sim.Duration(sc.ScannerDelay), func() { ready.TrySend(f) })
		}
	})

	var wireTotal time.Duration
	// Analysis chain process (unpipelined, as in the paper: the next
	// frame is requested only after the previous display completed). It
	// ends with the scanner's last frame, not after Frames of them: a
	// chain that skipped frames would wait for the rest forever, and the
	// parked Proc would keep its goroutine and this whole testbed alive.
	tb.K.Go("chain", func(p *sim.Proc) {
		for f := -1; f < sc.Frames-1; {
			f = ready.Recv(p)
			// Drain to the newest frame if we fell behind.
			for {
				next, ok := ready.TryRecv()
				if !ok {
					break
				}
				f = next
			}
			// Each transfer is a packet train; the chain resumes when its
			// last byte arrives.
			w0 := p.Now()
			// RT-server (Jülich ws) -> T3E: raw volume + control.
			send(p, 0, HostWSJuelich, HostT3E600, rawBytes)
			p.Sleep(sim.Duration(sc.ControlOverhead))
			// T3E processing.
			p.Sleep(sim.Duration(computeS))
			// T3E -> RT-client: functional + anatomical maps.
			send(p, 1, HostT3E600, HostWSJuelich, 2*funcBytes)
			p.Sleep(sim.Duration(sc.ControlOverhead))
			wireTotal += p.Now().Sub(w0) - sim.Duration(sc.ControlOverhead*2+computeS)
			// 2-D display.
			p.Sleep(sim.Duration(sc.DisplayTime))
			stamps[f].gui = p.Now()
			// 3-D path: functional data to the Onyx 2, rendered
			// stereo frame back to the Jülich workbench.
			w1 := p.Now()
			send(p, 2, HostT3E600, HostOnyx2, funcBytes)
			p.Sleep(sim.Duration(0.2)) // merge + render on the Onyx 2
			send(p, 3, HostOnyx2, HostWS2Juelich, frameBytes)
			wireTotal += p.Now().Sub(w1) - sim.Duration(0.2)
			stamps[f].vr = p.Now()
		}
	})
	tb.K.Run()

	var res FMRIScenarioResult
	var guiSum, vrSum float64
	for _, st := range stamps {
		if st.gui == 0 {
			continue // skipped frame
		}
		res.Frames++
		g := st.gui.Sub(st.scanEnd).Seconds()
		guiSum += g
		if g > res.MaxGUIDelay {
			res.MaxGUIDelay = g
		}
		vrSum += st.vr.Sub(st.scanEnd).Seconds()
	}
	if res.Frames == 0 {
		return res, fmt.Errorf("core: fMRI scenario displayed no frames")
	}
	res.MeanGUIDelay = guiSum / float64(res.Frames)
	res.MeanVRDelay = vrSum / float64(res.Frames)
	res.ComputeSeconds = computeS
	res.WireSeconds = wireTotal.Seconds() / float64(res.Frames)
	return res, nil
}
