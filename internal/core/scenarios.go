package core

import (
	"context"

	"repro/internal/atm"
	"repro/internal/fire"
)

// The paper's tables and figures as registered scenarios. Every entry
// here used to be a one-shot FigureN* function with its own result type
// and Format* helper; they now share the Scenario/Report contract and
// run through Run/RunAll.

func init() {
	MustRegister(NewScenario("table1-model",
		"Table 1: FIRE module times on the modeled T3E-600 vs. the paper",
		func(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return &Table1Report{
				Model: fire.DefaultT3E600().ModelTable1(),
				Paper: fire.PaperTable1,
			}, nil
		}))

	MustRegister(NewSweep("figure1-throughput",
		"Section 2: TCP path throughput across the testbed (Figure 1)",
		[]Axis{{Name: "probe", Values: f1probeValues()}},
		func(ctx context.Context, tb *Testbed, opts Options, pt Point) (any, error) {
			return figure1Probe(tb, pt.Coord(0).(f1probe))
		},
		func(opts Options, results []any) (Report, error) {
			rows := make([]Figure1Row, 0, len(results)+2)
			for _, r := range results {
				rows = append(rows, r.(Figure1Row))
			}
			return &Figure1Report{Rows: append(rows, figure1AnalyticRows()...)}, nil
		}).WirePoint(Figure1Row{}).PointDeps(OptWAN, OptExtensions))

	MustRegister(NewScenario("figure2-endtoend",
		"Section 4: realtime-fMRI end-to-end latency budget (Figure 2)",
		func(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
			r, err := figure2EndToEndOn(ctx, tb, opts.PEs, opts.Frames)
			if err != nil {
				return nil, err
			}
			return &Figure2Report{Figure2Result: r}, nil
		}))

	MustRegister(NewScenario("figure3-overlay",
		"Section 4: FIRE 2-D GUI overlay and ROI time course (Figure 3)",
		func(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := Figure3Overlay()
			if err != nil {
				return nil, err
			}
			return &Figure3Report{Figure3Result: r}, nil
		}))

	MustRegister(NewScenario("figure4-workbench",
		"Section 4: 3-D visualization and Responsive Workbench streaming (Figure 4)",
		func(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
			r, err := figure4WorkbenchOn(ctx, tb)
			if err != nil {
				return nil, err
			}
			return &Figure4Report{Figure4Result: r}, nil
		}))

	MustRegister(NewScenario("section3-applications",
		"Section 3: every application's WAN requirement vs. the testbed",
		func(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
			rows, err := section3ApplicationsOn(ctx, tb)
			if err != nil {
				return nil, err
			}
			return &Section3Report{Rows: rows}, nil
		}))

	MustRegister(NewScenario("fmri-dataflow",
		"Section 4: fully derived five-computer fMRI dataflow (DES over the testbed)",
		func(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// The dataflow drives its own simulation kernel, so it
			// always builds a private testbed.
			sc := FMRIScenario{PEs: opts.PEs, TR: 4.0, Frames: opts.Frames}
			r, err := RunFMRIScenario(Config{WAN: opts.WAN, Extensions: opts.Extensions}, sc)
			if err != nil {
				return nil, err
			}
			return &FMRIDataflowReport{Scenario: sc, Result: r}, nil
		}))

	// The upgrade-motivation sweeps drive the kernel directly
	// (tcpsim.Start / video.Stream on the raw network): each grid
	// point builds its own private testbed for its carrier generation,
	// so the shards are told not to construct one (NoShardTestbed).
	MustRegister(NewSweep("backbone-aggregate",
		"Section 2: aggregate backbone capacity under concurrent 622-attached flows",
		[]Axis{{Name: "wan", Values: []any{atm.OC12, atm.OC48}}},
		func(ctx context.Context, tb *Testbed, opts Options, pt Point) (any, error) {
			return BackboneAggregate(pt.Coord(0).(atm.OC), opts.Flows)
		},
		func(opts Options, results []any) (Report, error) {
			rep := &UpgradeReport{}
			for _, r := range results {
				rep.Aggregate = append(rep.Aggregate, r.(AggregateRow))
			}
			return rep, nil
		}).NoShardTestbed().WirePoint(AggregateRow{}).PointDeps(OptFlows))

	MustRegister(NewSweep("mixed-traffic",
		"Section 2: 270 Mbit/s D1 video sharing the backbone with bulk TCP",
		[]Axis{{Name: "wan", Values: []any{atm.OC12, atm.OC48}}},
		func(ctx context.Context, tb *Testbed, opts Options, pt Point) (any, error) {
			return MixedTraffic(pt.Coord(0).(atm.OC))
		},
		func(opts Options, results []any) (Report, error) {
			rep := &UpgradeReport{}
			for _, r := range results {
				rep.Mixed = append(rep.Mixed, r.(MixedTrafficResult))
			}
			return rep, nil
		}).NoShardTestbed().WirePoint(MixedTrafficResult{}).PointDeps())

	// The fMRI dataflow as a partition-size sweep: one five-computer
	// DES (its own kernel, network and testbed) per PE count, sharded
	// across cores, merged in grid order.
	MustRegister(NewSweep("fmri-pe-sweep",
		"Section 4: fMRI dataflow DES swept over T3E partition sizes",
		[]Axis{{Name: "pes", Values: []any{16, 64, 256}}},
		func(ctx context.Context, tb *Testbed, opts Options, pt Point) (any, error) {
			sc := FMRIScenario{PEs: pt.Coord(0).(int), TR: 4.0, Frames: opts.Frames}
			res, err := RunFMRIScenario(Config{WAN: opts.WAN, Extensions: opts.Extensions}, sc)
			if err != nil {
				return nil, err
			}
			return FMRIDataflowReport{Scenario: sc, Result: res}, nil
		},
		func(opts Options, results []any) (Report, error) {
			rep := &FMRISweepReport{}
			for _, r := range results {
				rep.Rows = append(rep.Rows, r.(FMRIDataflowReport))
			}
			return rep, nil
		}).NoShardTestbed().WirePoint(FMRIDataflowReport{}).PointDeps(OptWAN, OptExtensions, OptFrames))

	MustRegister(NewScenario("future-work",
		"Sections 1+4 outlook: B-WiN saturation and multi-echo feasibility",
		func(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := FutureWorkAnalysis()
			if err != nil {
				return nil, err
			}
			return &FutureWorkReport{FutureWorkResult: r}, nil
		}))
}
