// Benchmarks regenerating every table and figure of the paper. Each
// benchmark reports the reproduced quantities as custom metrics so
// `go test -bench=. -benchmem` doubles as the experiment harness
// (`gtwrun -flows 4 table1-model figure1-throughput ...` prints the
// same data as tables; README lists the paper-order command).
package gtw

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/fire"
	"repro/internal/machine"
	"repro/internal/meg"
	"repro/internal/mpi"
	"repro/internal/mri"
	"repro/internal/volume"
)

// BenchmarkTable1FIREScaling regenerates Table 1: FIRE module times on
// the modeled T3E-600 for 1..256 PEs. The per-PE sub-benchmarks report
// the modeled total seconds and speedup next to the paper's value.
func BenchmarkTable1FIREScaling(b *testing.B) {
	model := fire.DefaultT3E600()
	for _, paper := range fire.PaperTable1 {
		paper := paper
		b.Run(fmt.Sprintf("PEs=%d", paper.PEs), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				total = model.TotalTime(paper.PEs, 64, 64, 16)
			}
			t1 := model.TotalTime(1, 64, 64, 16)
			b.ReportMetric(total, "model-total-s")
			b.ReportMetric(paper.Total, "paper-total-s")
			b.ReportMetric(t1/total, "model-speedup")
			b.ReportMetric(paper.Speedup, "paper-speedup")
		})
	}
}

// BenchmarkFIREModulesReal runs the real analysis algorithms (not the
// cost model) on a reduced volume, giving the per-module compute
// character on the host machine.
func BenchmarkFIREModulesReal(b *testing.B) {
	ph := mri.NewPhantom(32, 32, 8, nil)
	vol := ph.Anatomy
	moved := volume.New(32, 32, 8)
	new(volume.Sampler).Shift(moved, vol, 0.7, -0.4, 0.2)
	b.Run("motion-correct", func(b *testing.B) {
		fixed := volume.New(32, 32, 8)
		for i := 0; i < b.N; i++ {
			if _, _, err := fire.MotionCorrect(fixed, vol, moved, fire.MotionOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Correlation over a 24-scan series.
	act := mri.Activation{CX: 16, CY: 16, CZ: 4, Radius: 3, Amplitude: 0.05, HRF: mri.DefaultHRF}
	sc := mri.NewScanner(mri.NewPhantom(32, 32, 8, []mri.Activation{act}),
		mri.ScanConfig{NX: 32, NY: 32, NZ: 8, TR: 2, NScans: 24, NoiseStd: 1, Seed: 1})
	series := scanSeries(sc)
	ref := sc.Reference(0)
	b.Run("correlate-24-scans", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := fire.NewCorrelator(ref, 32, 32, 8)
			for _, v := range series {
				if err := c.Add(v); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := c.Map(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// scanSeries runs sc to the end and keeps a clone of every scan: Next
// overwrites the one volume it returns.
func scanSeries(sc *mri.Scanner) []*volume.Volume {
	var series []*volume.Volume
	for v := sc.Next(); v != nil; v = sc.Next() {
		series = append(series, &volume.Volume{NX: v.NX, NY: v.NY, NZ: v.NZ, Data: slices.Clone(v.Data)})
	}
	return series
}

// BenchmarkFigure1Throughput regenerates the section-2 path
// measurements (Figure 1's quantitative content).
func BenchmarkFigure1Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var f1 Figure1Report
		runTyped(b, "figure1-throughput", &f1)
		b.ReportMetric(f1.Rows[0].Mbps, "hippi-local-Mbps")
		b.ReportMetric(f1.Rows[1].Mbps, "wan-t3e-sp2-Mbps")
		b.ReportMetric(f1.Rows[2].Mbps, "ws-64K-Mbps")
	}
}

// BenchmarkFigure2EndToEnd regenerates the fMRI latency budget.
func BenchmarkFigure2EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var r Figure2Report
		runTyped(b, "figure2-endtoend", &r, WithPEs(256), WithFrames(30))
		b.ReportMetric(r.TotalDelay, "total-delay-s")
		b.ReportMetric(r.Unpipelined, "period-s")
		b.ReportMetric(r.SafeTR, "safe-TR-s")
	}
}

// BenchmarkFigure3Overlay regenerates the GUI overlay experiment.
func BenchmarkFigure3Overlay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var r Figure3Report
		runTyped(b, "figure3-overlay", &r)
		b.ReportMetric(float64(r.ActivatedVoxels), "activated-voxels")
		b.ReportMetric(r.PeakCorrelation, "peak-r")
	}
}

// BenchmarkFigure4Workbench regenerates the visualization rates.
func BenchmarkFigure4Workbench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var r Figure4Report
		runTyped(b, "figure4-workbench", &r)
		b.ReportMetric(r.Rows[0].FPS, "oc12-clip-fps")
		b.ReportMetric(r.StreamFPS, "measured-stream-fps")
	}
}

// BenchmarkSection3Applications regenerates the application
// requirements table.
func BenchmarkSection3Applications(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var s3 Section3Report
		runTyped(b, "section3-applications", &s3)
		ok := 0
		for _, r := range s3.Rows {
			if r.OK {
				ok++
			}
		}
		b.ReportMetric(float64(ok), "apps-satisfied")
	}
}

// BenchmarkMPIMicro measures the metacomputing MPI's ping-pong between
// the T3E-600 and a rank on the same host, in the local Cray complex
// and across the WAN (the two-level cost structure of section 3). The
// ranks run on a testbed, so next to the host cost of simulating it
// each case reports what one ping-pong costs in virtual time.
func BenchmarkMPIMicro(b *testing.B) {
	for _, tc := range []struct {
		name  string
		peer  string
		bytes int
	}{
		{"intra-latency-0B", HostT3E600, 0},
		{"complex-latency-0B", HostT3E1200, 0},
		{"wan-latency-0B", HostSP2, 0},
		{"intra-bandwidth-1MB", HostT3E600, 1 << 20},
		{"complex-bandwidth-1MB", HostT3E1200, 1 << 20},
		{"wan-bandwidth-1MB", HostSP2, 1 << 20},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			payload := make([]byte, tc.bytes)
			net := NewTestbed(Config{}).Net
			b.SetBytes(int64(tc.bytes))
			b.ResetTimer()
			took, err := mpi.RunHosts(net, []string{HostT3E600, tc.peer}, nil, func(c *mpi.Comm) error {
				for i := 0; i < b.N; i++ {
					if c.Rank() == 0 {
						if err := c.Send(1, 1, payload); err != nil {
							return err
						}
						if _, err := c.Recv(1, 2); err != nil {
							return err
						}
					} else {
						if _, err := c.Recv(0, 1); err != nil {
							return err
						}
						if err := c.Send(0, 2, nil); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(took.Microseconds())/float64(b.N), "virtual-us/pingpong")
		})
	}
}

// BenchmarkPipelineAblation quantifies the pipelining improvement the
// paper identifies as unexploited (X1): unpipelined vs pipelined
// steady-state period at two partition sizes.
func BenchmarkPipelineAblation(b *testing.B) {
	model := fire.DefaultT3E600()
	for _, pes := range []int{64, 256} {
		pes := pes
		st := fire.PaperStageTimes(model, pes)
		b.Run(fmt.Sprintf("PEs=%d", pes), func(b *testing.B) {
			var up, pp fire.SessionResult
			for i := 0; i < b.N; i++ {
				var err error
				up, err = fire.SimulateSession(st, st.UnpipelinedPeriod()+0.05, 40, false)
				if err != nil {
					b.Fatal(err)
				}
				pp, err = fire.SimulateSession(st, st.PipelinedPeriod()+0.05, 40, true)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(up.AchievedPeriod, "unpipelined-period-s")
			b.ReportMetric(pp.AchievedPeriod, "pipelined-period-s")
			b.ReportMetric(up.AchievedPeriod/pp.AchievedPeriod, "speedup")
		})
	}
}

// BenchmarkFMRIScenarioDES runs the fully derived five-computer fMRI
// dataflow (scanner -> RT-server -> T3E -> client -> Onyx2 ->
// workbench) as a discrete-event simulation over the testbed,
// reporting the end-to-end delay that the F2 budget only asserts.
// The 300-frame cases show how a run's cost grows with its length.
func BenchmarkFMRIScenarioDES(b *testing.B) {
	for _, pes := range []int{64, 256} {
		for _, frames := range []int{10, 300} {
			b.Run(fmt.Sprintf("PEs=%d/Frames=%d", pes, frames), func(b *testing.B) {
				var rep FMRIDataflowReport // the scenario runs at TR 4.0 s
				for i := 0; i < b.N; i++ {
					runTyped(b, "fmri-dataflow", &rep, WithPEs(pes), WithFrames(frames))
				}
				b.ReportMetric(rep.Result.MeanGUIDelay, "gui-delay-s")
				b.ReportMetric(rep.Result.MeanVRDelay, "vr-delay-s")
				b.ReportMetric(rep.Result.WireSeconds, "wire-s")
			})
		}
	}
}

// BenchmarkBackboneUpgrade regenerates the upgrade-motivation
// experiments (U1/U2): aggregate flows and mixed video+bulk traffic,
// each scenario reporting both backbone generations side by side.
func BenchmarkBackboneUpgrade(b *testing.B) {
	b.Run("aggregate", func(b *testing.B) {
		var rep UpgradeReport
		for i := 0; i < b.N; i++ {
			runTyped(b, "backbone-aggregate", &rep, WithFlows(4))
		}
		for _, row := range rep.Aggregate {
			b.ReportMetric(row.AggregateMbps, fmt.Sprintf("%v-aggregate-Mbps", row.Backbone))
		}
	})
	b.Run("mixed", func(b *testing.B) {
		var rep UpgradeReport
		for i := 0; i < b.N; i++ {
			runTyped(b, "mixed-traffic", &rep)
		}
		for _, m := range rep.Mixed {
			b.ReportMetric(float64(m.Video.OnTime), fmt.Sprintf("%v-video-frames-on-time", m.Backbone))
			b.ReportMetric(m.BulkMbps, fmt.Sprintf("%v-bulk-Mbps", m.Backbone))
		}
	})
}

// BenchmarkFutureWork regenerates the forward-looking analyses: B-WiN
// saturation (section 1) and multi-echo feasibility (section 4).
func BenchmarkFutureWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var r FutureWorkReport
		runTyped(b, "future-work", &r)
		b.ReportMetric(r.BWiNSaturation, "bwin-saturation-year")
		b.ReportMetric(r.Acquisitions[1].T3EFullSeconds, "multiecho-512PE-s")
	}
}

// BenchmarkMEGDistribution quantifies the pmusic superlinear-speedup
// claim: MPP-only vs MPP+vector metacomputing.
func BenchmarkMEGDistribution(b *testing.B) {
	m := meg.DistributedModel{
		MPP:        machine.CrayT3E600(),
		Vector:     machine.CrayT90(),
		WANLatency: 550 * time.Microsecond,
		WANBps:     260e6,
		Sensors:    148, Signals: 5, GridPoints: 50000, Iterations: 10,
	}
	for _, pes := range []int{16, 64, 256} {
		pes := pes
		b.Run(fmt.Sprintf("PEs=%d", pes), func(b *testing.B) {
			var sp float64
			for i := 0; i < b.N; i++ {
				sp = m.SuperlinearSpeedup(pes)
			}
			b.ReportMetric(sp, "distributed-speedup")
		})
	}
}
