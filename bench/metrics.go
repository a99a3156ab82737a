package main

// The metric vocabulary. BENCHMARK.json declares the same names, units,
// directions and bounds; TestBenchmarkJSONMatches keeps the two in
// step, so later issues can quote either.

type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before -compare calls it a regression.
	bound float64
}

// endToEndDefs are what a user of the system sees, on every workload.
// A unit is one RunAll pass (suite), one pass over the sweep items
// (sim-sweep) or one job, submit to report (dist-*). Failures are
// counted against attempts in the result line itself (attempted,
// failed), which is where the driver reads them.
//
// The bounds are wider than ISSUE 11 asked for (10-15 %): on the
// shared two-core reference host identical runs of the CPU-bound
// workloads spread 10-15 % between their quartiles (README.md,
// "Reference host"), and a bound has to clear that spread to mean
// anything. 0.25 is the widest the contract allows.
var endToEndDefs = []metricDef{
	{"unit_ms_p50", "ms", "lower", 0.25},
	{"unit_ms_p90", "ms", "lower", 0.25},
	{"points_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_point", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayerDefs are the single-layer numbers of a traced run, grouped
// by the layer they belong to. A layer the workload does not cross
// reports 0. README.md maps each to the end-to-end metric it should
// move, and on which workload.
var perLayerDefs = []metricDef{
	// apps + mpi, from RunResult.Elapsed on suite
	{"scenario.fsi-cocolib_ms", "ms", "lower", 0},
	{"scenario.climate-coupled_ms", "ms", "lower", 0},
	{"scenario.groundwater-coupled_ms", "ms", "lower", 0},
	{"scenario.fire-rt-session_ms", "ms", "lower", 0},
	{"scenario.figure4-workbench_ms", "ms", "lower", 0},
	{"scenario.other_ms", "ms", "lower", 0},
	{"suite.cpu_over_wall", "share", "higher", 0},
	{"core.runall_overlap_x", "x", "higher", 0},
	{"mpi.msg_overhead_us", "us", "lower", 0},
	// sim / netsim / tcpsim / pdes
	{"sim.event_ns", "ns", "lower", 0},
	{"sim.proc_switch_ns", "ns", "lower", 0},
	{"sim.chan_ns", "ns", "lower", 0},
	{"netsim.packet_ns", "ns", "lower", 0},
	{"netsim.hop_ns", "ns", "lower", 0},
	{"tcpsim.ns_per_event", "ns", "lower", 0},
	{"tcpsim.events_per_mib", "count", "lower", 0},
	{"core.testbed_build_us", "us", "lower", 0},
	{"core.testbed_ns_per_event", "ns", "lower", 0},
	{"scenario.figure1-oc48_ms", "ms", "lower", 0},
	{"scenario.figure1-oc12ext_ms", "ms", "lower", 0},
	{"scenario.backbone-aggregate_ms", "ms", "lower", 0},
	{"scenario.mixed-traffic_ms", "ms", "lower", 0},
	{"scenario.video-d1_ms", "ms", "lower", 0},
	{"scenario.fmri-pe-sweep_ms", "ms", "lower", 0},
	{"core.shard_speedup_x", "x", "higher", 0},
	{"pdes.kernels2_x", "x", "higher", 0},
	// core execution plane
	{"core.eval_point_us.fmri-dataflow", "us", "lower", 0},
	{"core.eval_point_us.figure2-endtoend", "us", "lower", 0},
	{"core.eval_point_us.bench-grid", "us", "lower", 0},
	{"core.encode_point_ns", "ns", "lower", 0},
	{"core.decode_point_ns", "ns", "lower", 0},
	{"core.point_key_ns", "ns", "lower", 0},
	{"core.dispatch_lease_ns", "ns", "lower", 0},
	// dist, from the timing RoundTrippers and the coordinator's counters
	{"dist.submit_ms", "ms", "lower", 0},
	{"dist.wait_ms", "ms", "lower", 0},
	{"dist.fetch_ms", "ms", "lower", 0},
	{"dist.lease_ms", "ms", "lower", 0},
	{"dist.lease_empty_share", "share", "lower", 0},
	{"dist.result_ms", "ms", "lower", 0},
	{"dist.resubmit_share", "share", "lower", 0},
	{"dist.points_ms", "ms", "lower", 0},
	{"dist.req_per_point", "count", "lower", 0},
	{"dist.bytes_per_point", "B", "lower", 0},
	{"dist.points_per_lease", "count", "higher", 0},
	{"dist.store_hit_share", "share", "higher", 0},
	{"dist.store_evictions", "count", "lower", 0},
	// persist, by direct calls on a scratch journal
	{"persist.put_point_us", "us", "lower", 0},
	{"persist.wal_bytes_per_point", "B", "lower", 0},
	{"persist.put_job_us", "us", "lower", 0},
	{"persist.snapshot_ms", "ms", "lower", 0},
	{"persist.recover_ms", "ms", "lower", 0},
	{"persist.disk_over_mem_x", "x", "lower", 0},
	// tenant / obs
	{"tenant.auth_ns", "ns", "lower", 0},
	{"tenant.order_ns", "ns", "lower", 0},
	{"obs.scrape_ms", "ms", "lower", 0},
	{"dist.status_ms", "ms", "lower", 0},
	// the client's tail: diagnostics, not gated — on a shared host they
	// do not repeat within a tenth
	{"client.unit_ms_p99", "ms", "lower", 0},
	{"client.unit_ms_tail", "ms", "lower", 0},
	{"client.tail_pct", "pct", "higher", 0},
	// the trace itself: wall-time share of the traced window per layer
	{"self.bench_share", "share", "lower", 0},
	{"self.core_share", "share", "lower", 0},
	{"self.apps_share", "share", "lower", 0},
	{"self.sim_share", "share", "lower", 0},
	{"self.dist_share", "share", "lower", 0},
	{"trace.self_sum_share", "share", "higher", 0},
	{"trace.overhead_share", "share", "lower", 0},
}

// metric is one value on the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named turns measured values into the result line's metrics: exactly
// the defined names, 0 for a layer that was not crossed. A measured
// name no definition lists is a bug in the benchmark and comes back as
// the second result.
func named(defs []metricDef, vals map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	var stray []string
	for name := range vals {
		if _, ok := out[name]; !ok {
			stray = append(stray, name)
		}
	}
	return out, stray
}
