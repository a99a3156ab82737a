package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/atm"
)

// This file defines the unified scenario abstraction: every experiment
// in the repository — the paper's figures and tables as well as the
// section-3 application workloads — registers itself as a Scenario and
// runs through one engine. Adding the next workload is a one-file
// exercise: implement Run, call MustRegister from an init function.

// Report is the uniform result of a scenario run. Concrete reports are
// plain structs so JSON round-trips; Text renders the human-readable
// table the old Format* helpers produced.
type Report interface {
	// Text renders the report as the human-readable table printed by
	// cmd/gtwrun.
	Text() string
	// JSON marshals the underlying measurement record.
	JSON() ([]byte, error)
}

// Scenario is one runnable experiment over the testbed.
//
// Run receives a fresh testbed built by the engine from the run's WAN
// and Extensions options (a Sweep is handed nil and builds one per
// shard). Scenarios that need a simulation kernel of their own build a
// private testbed internally and ignore the argument. Contention
// between the paper's projects on the one WAN is modelled inside one
// scenario, which starts every competing flow on one kernel
// (backbone-aggregate, mixed-traffic).
type Scenario interface {
	// Name is the unique registry key (kebab-case).
	Name() string
	// Description is a one-line summary for listings.
	Description() string
	// Run executes the scenario and returns its report.
	Run(ctx context.Context, tb *Testbed, opts Options) (Report, error)
}

// Options carries the cross-scenario parameters. Build it with
// NewOptions, which starts from DefaultOptions before applying the
// functional options. Fields reach scenarios verbatim — a hand-built
// Options literal with zero PEs/Frames/Flows makes the scenarios that
// use them fail validation rather than fall back to defaults (only a
// zero WAN defaults, to OC-48, when the engine builds a testbed).
type Options struct {
	// WAN is the backbone carrier for engine-built testbeds (default
	// atm.OC48). Scenarios that sweep carrier generations by design
	// (backbone-aggregate, mixed-traffic, video-d1) ignore it.
	WAN atm.OC
	// Extensions adds the section-5 sites to engine-built testbeds.
	Extensions bool
	// PEs is the T3E partition size for the fMRI scenarios.
	PEs int
	// Frames is the number of volumes/frames/scans to acquire.
	Frames int
	// Flows is the number of concurrent flows for backbone loading.
	Flows int
	// Workers bounds engine concurrency: RunAll's pool and each sweep's
	// shard count (default GOMAXPROCS).
	Workers int
}

// Option mutates Options (the functional-options pattern).
type Option func(*Options)

// DefaultOptions returns the engine defaults: OC-48 backbone, 256 PEs,
// 30 frames, 2 flows.
func DefaultOptions() Options {
	return Options{WAN: atm.OC48, PEs: 256, Frames: 30, Flows: 2}
}

// NewOptions applies opts on top of DefaultOptions.
func NewOptions(opts ...Option) Options {
	o := DefaultOptions()
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithWAN selects the backbone carrier generation.
func WithWAN(oc atm.OC) Option { return func(o *Options) { o.WAN = oc } }

// WithExtensions includes the section-5 extension sites.
func WithExtensions() Option { return func(o *Options) { o.Extensions = true } }

// WithPEs sets the T3E partition size.
func WithPEs(n int) Option { return func(o *Options) { o.PEs = n } }

// WithFrames sets the number of acquired volumes/frames.
func WithFrames(n int) Option { return func(o *Options) { o.Frames = n } }

// WithFlows sets the number of concurrent backbone flows.
func WithFlows(n int) Option { return func(o *Options) { o.Flows = n } }

// WithWorkers bounds the RunAll worker pool and each sweep's shard
// count.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithShards does nothing: a sweep picks its own shard count, one per
// core, capped by WithWorkers and by the grid size.
//
// Deprecated: bench/inproc.go is its only caller; it goes when that
// call does.
func WithShards(int) Option { return func(*Options) {} }

// WithKernels does nothing: every testbed runs on one kernel.
//
// Deprecated: bench/inproc.go is its only caller; it goes when that
// call does.
func WithKernels(int) Option { return func(*Options) {} }

// funcScenario adapts a function to the Scenario interface.
type funcScenario struct {
	name, desc string
	run        func(ctx context.Context, tb *Testbed, opts Options) (Report, error)
}

func (s *funcScenario) Name() string        { return s.name }
func (s *funcScenario) Description() string { return s.desc }
func (s *funcScenario) Run(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
	return s.run(ctx, tb, opts)
}

// NewScenario builds a Scenario from a run function.
func NewScenario(name, description string,
	run func(ctx context.Context, tb *Testbed, opts Options) (Report, error)) Scenario {
	return &funcScenario{name: name, desc: description, run: run}
}

// ---------------------------------------------------------- registry --

var registry = struct {
	sync.Mutex
	m     map[string]Scenario
	epoch uint64
}{m: make(map[string]Scenario)}

// Register adds a scenario to the package registry. It rejects empty
// and duplicate names.
func Register(s Scenario) error {
	if s == nil {
		return fmt.Errorf("core: Register(nil)")
	}
	name := s.Name()
	if name == "" {
		return fmt.Errorf("core: scenario with empty name")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		return fmt.Errorf("core: scenario %q already registered", name)
	}
	registry.m[name] = s
	registry.epoch++
	return nil
}

// ScenarioEpoch reports a counter that advances on every Register. A
// cache keyed by (Config, epoch) — the dist worker's cross-job testbed
// cache — is invalidated when the scenario set changes, since a newly
// registered scenario may mutate shared testbed state in ways the
// cached instance has not seen.
func ScenarioEpoch() uint64 {
	registry.Lock()
	defer registry.Unlock()
	return registry.epoch
}

// MustRegister is Register for init functions; it panics on error.
func MustRegister(s Scenario) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Lookup resolves a registered scenario by name.
func Lookup(name string) (Scenario, bool) {
	registry.Lock()
	defer registry.Unlock()
	s, ok := registry.m[name]
	return s, ok
}

// Scenarios lists every registered scenario sorted by name.
func Scenarios() []Scenario {
	registry.Lock()
	defer registry.Unlock()
	out := make([]Scenario, 0, len(registry.m))
	for _, s := range registry.m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// ------------------------------------------------------------ engine --

// RunResult is one scenario outcome from RunAll.
type RunResult struct {
	Name    string
	Report  Report
	Err     error
	Elapsed time.Duration
}

// Run executes one registered scenario: resolve it, build its testbed,
// run, report.
func Run(ctx context.Context, name string, opts ...Option) (Report, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown scenario %q", name)
	}
	res := runOne(ctx, s, NewOptions(opts...))
	return res.Report, res.Err
}

// RunWith is Run with a fully built Options value — the entry point for
// callers (the internal/dist coordinator) that carry Options across a
// wire instead of composing functional options.
func RunWith(ctx context.Context, name string, o Options) (Report, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown scenario %q", name)
	}
	res := runOne(ctx, s, o)
	return res.Report, res.Err
}

// RunAll executes the named scenarios (all registered ones when names
// is empty) on a worker pool. Scenarios run concurrently, each on a
// fresh testbed. Results are returned in input order with
// per-scenario timing; a scenario failure lands in its RunResult.Err
// without stopping the others. When ctx is cancelled, in-flight
// scenarios are cancelled through their context, queued scenarios are
// not started, and RunAll returns ctx's error.
func RunAll(ctx context.Context, names []string, opts ...Option) ([]RunResult, error) {
	o := NewOptions(opts...)
	if len(names) == 0 {
		for _, s := range Scenarios() {
			names = append(names, s.Name())
		}
	}
	scns := make([]Scenario, len(names))
	for i, name := range names {
		s, ok := Lookup(name)
		if !ok {
			return nil, fmt.Errorf("core: unknown scenario %q", name)
		}
		scns[i] = s
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scns) {
		workers = len(scns)
	}
	// A pool of several workers already keeps the cores busy with
	// scenarios, so a sweep among them takes one shard: more would
	// build testbeds and goroutines that only compete with the pool.
	// A scenario run alone (Run, or a pool of one) keeps its fan-out.
	each := o
	if workers > 1 {
		each.Workers = 1
	}
	results := make([]RunResult, len(scns))
	var started = make([]bool, len(scns))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runOne(ctx, scns[i], each)
			}
		}()
	}
feed:
	for i := range scns {
		select {
		case idx <- i:
			started[i] = true
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	for i, ok := range started {
		if !ok {
			results[i] = RunResult{Name: scns[i].Name(), Err: ctx.Err()}
		}
	}
	// Report the context error only if it actually cost results: a
	// deadline that fires after the last scenario completed is not a
	// failed run, and an unrelated scenario failure is not a timeout.
	if err := ctx.Err(); err != nil {
		for _, r := range results {
			if errors.Is(r.Err, err) {
				return results, err
			}
		}
	}
	return results, nil
}

// runOne executes a single scenario with panic containment and timing.
// The testbed decision (engine-built or shard-built) lives in the
// scenario's Plan, not here.
func runOne(ctx context.Context, s Scenario, o Options) (res RunResult) {
	res.Name = s.Name()
	//gtwvet:ignore determinism Elapsed is engine wall-clock telemetry; report formatting and hashing exclude it from report bytes
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("core: scenario %q panicked: %v", s.Name(), r)
		}
	}()
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	res.Report, res.Err = PlanFor(s).Run(ctx, o)
	return res
}
