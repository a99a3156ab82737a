package gtw

import (
	"context"

	"repro/internal/core"
)

// This file is the scenario layer of the public API: a registry of
// uniformly-shaped experiments, functional options, and a concurrent
// run engine. See the package comment in gtw.go for the quickstart.

// Scenario is one runnable experiment: a name, a description, and a
// Run method over a testbed.
type Scenario = core.Scenario

// Report is the uniform scenario result: Text renders the
// human-readable table, JSON marshals the measurement record.
type Report = core.Report

// Options carries the cross-scenario parameters; build it with
// functional options (WithWAN, WithPEs, ...).
type Options = core.Options

// Option mutates Options.
type Option = core.Option

// RunResult is one scenario outcome from RunAll, with per-scenario
// timing and error.
type RunResult = core.RunResult

// Report types of the built-in scenarios, for callers that need the
// concrete record rather than the Report interface.
type (
	// Table1Report compares the calibrated T3E model with Table 1.
	Table1Report = core.Table1Report
	// Figure1Report carries the section-2 path measurements.
	Figure1Report = core.Figure1Report
	// Figure2Report carries the realtime-fMRI latency budget.
	Figure2Report = core.Figure2Report
	// Figure3Report carries the FIRE GUI overlay measurement.
	Figure3Report = core.Figure3Report
	// Figure4Report carries the 3-D visualization measurements.
	Figure4Report = core.Figure4Report
	// Section3Report carries the application-requirements table.
	Section3Report = core.Section3Report
	// FMRIDataflowReport carries the derived fMRI dataflow timing.
	FMRIDataflowReport = core.FMRIDataflowReport
	// FMRISweepReport carries the fMRI dataflow swept over PE counts.
	FMRISweepReport = core.FMRISweepReport
	// UpgradeReport carries the OC-12 -> OC-48 upgrade measurements.
	UpgradeReport = core.UpgradeReport
	// FutureWorkReport carries the forward-looking analyses.
	FutureWorkReport = core.FutureWorkReport
	// ClimateReport carries the coupled climate run.
	ClimateReport = core.ClimateReport
	// GroundwaterReport carries the TRACE/PARTRACE coupled run.
	GroundwaterReport = core.GroundwaterReport
	// FSIReport carries the MetaCISPAR COCOLIB coupled run.
	FSIReport = core.FSIReport
	// MEGReport carries the pmusic dipole localisation.
	MEGReport = core.MEGReport
	// VideoReport carries the D1 video streaming runs.
	VideoReport = core.VideoReport
	// RTSessionReport carries the loopback-TCP realtime fMRI session.
	RTSessionReport = core.RTSessionReport
)

// NewScenario builds a Scenario from a run function — the one-file way
// to add a workload:
//
//	gtw.MustRegister(gtw.NewScenario("my-workload", "what it measures",
//		func(ctx context.Context, tb *gtw.Testbed, opts gtw.Options) (gtw.Report, error) {
//			...
//		}))
func NewScenario(name, description string,
	run func(ctx context.Context, tb *Testbed, opts Options) (Report, error)) Scenario {
	return core.NewScenario(name, description, run)
}

// Register adds a scenario to the registry; it rejects empty and
// duplicate names.
func Register(s Scenario) error { return core.Register(s) }

// MustRegister is Register for init functions; it panics on error.
func MustRegister(s Scenario) { core.MustRegister(s) }

// Lookup resolves a registered scenario by name.
func Lookup(name string) (Scenario, bool) { return core.Lookup(name) }

// Scenarios lists every registered scenario sorted by name.
func Scenarios() []Scenario { return core.Scenarios() }

// Run executes one registered scenario on a fresh testbed.
func Run(ctx context.Context, name string, opts ...Option) (Report, error) {
	return core.Run(ctx, name, opts...)
}

// RunAll executes the named scenarios (all registered ones when names
// is empty) concurrently on a worker pool, each on a fresh testbed.
// Results come back in input order with per-scenario timing;
// cancelling ctx stops in-flight scenarios and skips queued ones.
func RunAll(ctx context.Context, names []string, opts ...Option) ([]RunResult, error) {
	return core.RunAll(ctx, names, opts...)
}

// DefaultOptions returns the engine defaults (OC-48 backbone, 256 PEs,
// 30 frames, 2 flows).
func DefaultOptions() Options { return core.DefaultOptions() }

// NewOptions applies opts on top of DefaultOptions.
func NewOptions(opts ...Option) Options { return core.NewOptions(opts...) }

// WithWAN selects the backbone carrier generation (OC12, OC48) for
// engine-built testbeds. Scenarios that sweep carrier generations by
// design (backbone-aggregate, mixed-traffic, video-d1) ignore it.
func WithWAN(oc OC) Option { return core.WithWAN(oc) }

// WithExtensions includes the section-5 extension sites.
func WithExtensions() Option { return core.WithExtensions() }

// WithPEs sets the T3E partition size for the fMRI scenarios.
func WithPEs(n int) Option { return core.WithPEs(n) }

// WithFrames sets the number of acquired volumes/frames/scans.
func WithFrames(n int) Option { return core.WithFrames(n) }

// WithFlows sets the number of concurrent backbone flows.
func WithFlows(n int) Option { return core.WithFlows(n) }

// WithWorkers bounds the RunAll worker pool (default GOMAXPROCS).
func WithWorkers(n int) Option { return core.WithWorkers(n) }
