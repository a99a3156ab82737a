package core

import (
	"context"
	"encoding/json"
	"fmt"
)

// This file makes the grid point the universal unit of work: every
// registered scenario — sweep or not — resolves to a Plan, the
// point-based execution view the dispatcher, the shard executor and the
// distributed run service all consume. A Sweep is its own plan; any
// other scenario becomes a one-point sweep whose single point executes
// Scenario.Run on the shard's testbed and whose wire form is the
// report's JSON and rendered text. The layers downstream of PlanFor
// never ask "is this a sweep?" again: a one-shot coupled application
// travels the same lease queue, point store and worker protocol as a
// thousand-point parameter sweep, exactly as the paper's testbed ran
// metacomputing sweeps and one-shot applications over one
// infrastructure.

// PointRunner is the point-based execution contract every scenario
// reduces to: enumerate a grid, evaluate one point at a time, merge the
// results in grid order, and round-trip point results through a wire
// codec. *Sweep implements it; PlanFor wraps everything else.
type PointRunner interface {
	// Points enumerates the grid in row-major order.
	Points() []Point
	// EvalPoint evaluates the grid point at index i on tb.
	EvalPoint(ctx context.Context, tb *Testbed, opts Options, i int) (any, error)
	// EncodePoint marshals one point result for the wire.
	EncodePoint(v any) ([]byte, error)
	// DecodePoint unmarshals one wire point into the value MergeFunc
	// expects.
	DecodePoint(b []byte) (any, error)
	// PointKey returns the point's content address (see Sweep.PointKey).
	PointKey(opts Options, pt Point) string
}

var _ PointRunner = (*Sweep)(nil)

// Plan is a scenario resolved to its executable form. The Sweep it
// exposes is the scenario itself when the scenario is a sweep, or a
// synthesized one-point sweep wrapping Scenario.Run otherwise; either
// way the grid point is the unit the dispatcher leases, the workers
// evaluate and the point store caches.
type Plan struct {
	scenario Scenario
	sweep    *Sweep
	wrapped  bool
}

// PlanFor resolves a registered (or unregistered) scenario to its
// execution plan. Plans are cheap to build; callers construct one per
// run or per lease rather than caching them.
func PlanFor(s Scenario) *Plan {
	if sw, ok := s.(*Sweep); ok {
		return &Plan{scenario: s, sweep: sw}
	}
	return &Plan{scenario: s, sweep: wrapScenario(s), wrapped: true}
}

// Sweep returns the plan's executable grid: the scenario itself for
// sweeps, the synthesized one-point wrapper otherwise.
func (p *Plan) Sweep() *Sweep { return p.sweep }

// Distributable reports whether the plan's points can travel to remote
// workers. Wrapped scenarios always can (their wire form is the
// report's JSON and text); native sweeps need a WirePoint declaration.
func (p *Plan) Distributable() bool { return p.sweep.Distributable() }

// Run executes the plan in-process: native sweeps go through the
// sharded sweep engine, wrapped scenarios run directly on an
// engine-built testbed — the single place that knows the difference,
// so the engine, the coordinator and the CLI don't.
func (p *Plan) Run(ctx context.Context, o Options) (Report, error) {
	if !p.wrapped {
		return p.sweep.Run(ctx, nil, o)
	}
	return p.scenario.Run(ctx, New(Config{WAN: o.WAN, Extensions: o.Extensions}), o)
}

// WireReport is a scenario report reconstructed from its wire form: the
// marshalled JSON and rendered text of the concrete report the point
// evaluation produced. It is what a wrapped scenario's point decodes
// into on the coordinator, and what keeps a remotely executed non-sweep
// scenario byte-identical to the local run — the bytes crossed the wire
// verbatim instead of being re-derived.
type WireReport struct {
	R json.RawMessage `json:"report"`
	T string          `json:"text"`
}

// Text implements Report.
func (r WireReport) Text() string { return r.T }

// JSON implements Report.
func (r WireReport) JSON() ([]byte, error) { return r.R, nil }

// wrapScenario synthesizes the one-point sweep around a non-sweep
// scenario: one grid point that runs the scenario on the shard's
// testbed, a merge that hands the single report through, and a wire
// codec that carries the report's JSON and text.
func wrapScenario(s Scenario) *Sweep {
	sw := NewSweep(s.Name(), s.Description(),
		[]Axis{{Name: "run", Values: []any{s.Name()}}},
		func(ctx context.Context, tb *Testbed, opts Options, pt Point) (any, error) {
			return s.Run(ctx, tb, opts)
		},
		func(opts Options, results []any) (Report, error) {
			rep, ok := results[0].(Report)
			if !ok {
				return nil, fmt.Errorf("core: scenario %q point produced %T, want a Report", s.Name(), results[0])
			}
			return rep, nil
		})
	sw.encode = encodeReportPoint
	sw.decode = pointDecoder(s.Name(), readWireReport)
	return sw
}

// encodeReportPoint marshals a wrapped scenario's point result — a live
// Report from a fresh evaluation, or an already-wire-shaped WireReport
// served from the point store — into the wire form.
func encodeReportPoint(v any) ([]byte, error) {
	switch r := v.(type) {
	case WireReport:
		return json.Marshal(r)
	case Report:
		j, err := r.JSON()
		if err != nil {
			return nil, err
		}
		return json.Marshal(WireReport{R: j, T: r.Text()})
	}
	return nil, fmt.Errorf("core: report point is %T, want a Report", v)
}
