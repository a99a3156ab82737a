package core_test

import (
	"testing"

	"repro/internal/benchkit"
)

// The sweep-engine benchmarks: the same 8-point TCP sweep run on one
// kernel vs. sharded across GOMAXPROCS kernels. Bodies live in
// internal/benchkit so cmd/gtwbench runs the identical code into
// BENCH_kernel.json; the tracked number is the ratio of the two.

// BenchmarkSweepSingleKernel is the pre-sharding baseline.
func BenchmarkSweepSingleKernel(b *testing.B) { benchkit.SweepSingleKernel(b) }

// BenchmarkSweepSharded splits the grid across per-core shards.
func BenchmarkSweepSharded(b *testing.B) { benchkit.SweepSharded(b) }

// BenchmarkSweepWorkStealing runs an intentionally uneven grid (one
// ~10x point, the figure1 pattern) through the work-stealing queue.
func BenchmarkSweepWorkStealing(b *testing.B) { benchkit.SweepWorkStealing(b) }
