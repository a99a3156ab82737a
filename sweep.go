package gtw

import (
	"repro/internal/core"
)

// This file is the sweep layer of the public API: parameter-sweep
// scenarios whose grid is split across per-core shards — each shard
// owning a fresh simulation kernel, network and testbed — with results
// merged deterministically in grid order, so a sharded run's report is
// byte-identical to the sequential one. A Sweep is an ordinary
// Scenario: register it and it runs through Run/RunAll/cmd/gtwrun with
// no special cases.
//
//	gtw.MustRegister(gtw.NewSweep("my-sweep", "what it sweeps",
//		[]gtw.Axis{{Name: "mtu", Values: []any{1500, 9180, 65536}}},
//		func(ctx context.Context, tb *gtw.Testbed, opts gtw.Options, pt gtw.Point) (any, error) {
//			return probe(tb, pt.Coord(0).(int))
//		},
//		func(opts gtw.Options, results []any) (gtw.Report, error) {
//			return assemble(results), nil
//		}))
//	rep, err := gtw.Run(ctx, "my-sweep")

// Axis is one named dimension of a sweep grid.
type Axis = core.Axis

// Point is one coordinate of a sweep grid (row-major order, last axis
// fastest).
type Point = core.Point

// PointFunc evaluates one grid point on the shard's testbed.
type PointFunc = core.PointFunc

// MergeFunc reassembles per-point results (in grid order) into the
// scenario Report.
type MergeFunc = core.MergeFunc

// Sweep is a parameter-sweep scenario executed by the sharded sweep
// engine; it implements Scenario.
type Sweep = core.Sweep

// ShardTiming records one shard's point count and wall-clock time.
type ShardTiming = core.ShardTiming

// ShardedReport is the Report of a sweep run: the merged scenario
// report plus per-shard timings (Text/JSON delegate to the merged
// report, so sharding never changes the measurement record).
type ShardedReport = core.ShardedReport

// CountWorkers counts the timing entries that evaluated at least one
// grid point — the participant figure surfaced as "workers" in gtwrun's
// -json envelope and the distributed job status.
func CountWorkers(timings []ShardTiming) int { return core.CountWorkers(timings) }

// NewSweep builds a sweep scenario over the cross product of axes.
func NewSweep(name, description string, axes []Axis, runPoint PointFunc, merge MergeFunc) *Sweep {
	return core.NewSweep(name, description, axes, runPoint, merge)
}
