package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/fire"
	"repro/internal/mri"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestFMRIScenarioMatchesReference pins "same run": replaying a hop's
// first train by its duration must give exactly the result, and the
// error, of simulating every train. The grid crosses both backbones
// with and without the extension sites; scanner periods and delays on
// both sides of the train durations; partitions from one PE to the
// frame-skipping regime past 5 600; and control and display costs at
// their defaults, non-positive (zero-length sleeps, so the chain's
// trains meet back to back) and one nanosecond.
func TestFMRIScenarioMatchesReference(t *testing.T) {
	costs := []float64{0, -0.5, 1e-9} // default, non-positive, one nanosecond
	for _, wan := range []atm.OC{atm.OC12, atm.OC48} {
		for _, ext := range []bool{false, true} {
			cfg := Config{WAN: wan, Extensions: ext}
			t.Run(fmt.Sprintf("%v/ext=%v", wan, ext), func(t *testing.T) {
				t.Parallel()
				for _, tr := range []float64{0.3, 1, 2, 4} {
					for _, delay := range []float64{0, 0.001, 0.1} {
						for _, pes := range []int{1, 64, 256, 5600, 20000} {
							for _, frames := range []int{1, 5, 40} {
								for _, control := range costs {
									for _, display := range costs {
										matchReference(t, cfg, FMRIScenario{PEs: pes, TR: tr, Frames: frames,
											ScannerDelay: delay, ControlOverhead: control, DisplayTime: display})
									}
								}
							}
						}
					}
				}
			})
		}
	}
}

// matchReference fails t unless RunFMRIScenario and the reference give
// the same result and the same error.
func matchReference(t *testing.T, cfg Config, sc FMRIScenario) FMRIScenarioResult {
	t.Helper()
	got, err := RunFMRIScenario(cfg, sc)
	want, wantErr := referenceRunFMRIScenario(cfg, sc)
	if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%+v %+v:\n got %+v, %v\nwant %+v, %v", cfg, sc, got, err, want, wantErr)
	}
	return want
}

// TestFMRIScenarioReplayKeepsReadyTies runs the chain where a frame
// becomes ready at the very nanosecond the chain finishes the previous
// one, with an older frame already waiting: TR is half the chain's
// cycle. Which of the two events comes first decides the frame the
// chain takes next, so a replayed train must wake the chain after the
// scanner's send, as the last packet of a simulated one would. At a
// scanner delay of 1 ms the stereo-frame train is longer than the
// delay and must be simulated every time; at 100 ms every train is
// replayed.
func TestFMRIScenarioReplayKeepsReadyTies(t *testing.T) {
	for _, wan := range []atm.OC{atm.OC12, atm.OC48} {
		for _, delay := range []float64{0.001, 0.1} {
			cfg := Config{WAN: wan}
			sc := FMRIScenario{PEs: 256, TR: 4, Frames: 1, ScannerDelay: delay}
			// One frame on an idle chain: VR delay = delay + one cycle.
			cycle := func() time.Duration {
				r, err := referenceRunFMRIScenario(cfg, sc)
				if err != nil {
					t.Fatal(err)
				}
				return time.Duration(math.Round(r.MeanVRDelay*1e9)) - sim.Duration(delay)
			}
			// A nanosecond more display time makes an odd cycle even.
			for sc.DisplayTime = 0.6; cycle()%2 != 0; {
				sc.DisplayTime = seconds(sim.Duration(sc.DisplayTime) + 1)
			}
			sc.TR, sc.Frames = seconds(cycle()/2), 9
			want := matchReference(t, cfg, sc)
			if want.Frames != 5 {
				t.Fatalf("%+v: reference displayed %d of 9 frames, want every other one", sc, want.Frames)
			}
		}
	}
}

// seconds returns the float64 second count that sim.Duration maps back
// to exactly d.
func seconds(d time.Duration) float64 {
	s := d.Seconds()
	for sim.Duration(s) < d {
		s = math.Nextafter(s, math.Inf(1))
	}
	return s
}

// referenceRunFMRIScenario is RunFMRIScenario as it was before each hop
// was simulated once per run, kept verbatim: every frame sends all four
// packet trains.
func referenceRunFMRIScenario(cfg Config, sc FMRIScenario) (FMRIScenarioResult, error) {
	if sc.PEs < 1 || sc.Frames < 1 || sc.TR <= 0 {
		return FMRIScenarioResult{}, fmt.Errorf("core: bad fMRI scenario %+v", sc)
	}
	if sc.NX == 0 {
		sc.NX, sc.NY, sc.NZ = 64, 64, 16
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
			netsim.Train(tb.Net, hosts[HostWSJuelich], hosts[HostT3E600], rawBytes).Recv(p)
			p.Sleep(sim.Duration(sc.ControlOverhead))
			// T3E processing.
			p.Sleep(sim.Duration(computeS))
			// T3E -> RT-client: functional + anatomical maps.
			netsim.Train(tb.Net, hosts[HostT3E600], hosts[HostWSJuelich], 2*funcBytes).Recv(p)
			p.Sleep(sim.Duration(sc.ControlOverhead))
			wireTotal += p.Now().Sub(w0) - sim.Duration(sc.ControlOverhead*2+computeS)
			// 2-D display.
			p.Sleep(sim.Duration(sc.DisplayTime))
			stamps[f].gui = p.Now()
			// 3-D path: functional data to the Onyx 2, rendered
			// stereo frame back to the Jülich workbench.
			w1 := p.Now()
			netsim.Train(tb.Net, hosts[HostT3E600], hosts[HostOnyx2], funcBytes).Recv(p)
			p.Sleep(sim.Duration(0.2)) // merge + render on the Onyx 2
			netsim.Train(tb.Net, hosts[HostOnyx2], hosts[HostWS2Juelich], frameBytes).Recv(p)
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
