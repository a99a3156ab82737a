package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/persist"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/tenant"
)

// Probes time one layer in isolation, by direct calls into its exported
// functions. They do not depend on the workload, so every traced run
// takes all of them; next to the workload's own per-layer numbers they
// say whether a layer got slower or was merely used more.

// probeTime is how long testing.Benchmark measures each probe: two
// dozen probes must fit a traced run with room to spare.
const probeTime = "100ms"

func init() {
	testing.Init()
	setProbeTime(probeTime)
}

func setProbeTime(d string) {
	if err := flag.Set("test.benchtime", d); err != nil {
		panic(err)
	}
}

// nsPerOp runs a benchmark body under testing.Benchmark.
func nsPerOp(fn func(b *testing.B)) (float64, error) {
	r := testing.Benchmark(fn)
	if r.N == 0 {
		return 0, fmt.Errorf("probe failed under testing.Benchmark")
	}
	return float64(r.T.Nanoseconds()) / float64(r.N), nil
}

// canary is the host's speed on the simplest thing the repo does, one
// kernel event: the fastest of five takes, because interference only
// ever slows a take down. A run whose canary moves between start and
// end ran on a host that changed under it.
func canary() float64 {
	runtime.GC() // measure the host, not the collector finishing the workload's garbage
	best := math.Inf(1)
	for i := 0; i < 5; i++ {
		if ns, err := nsPerOp(benchkit.EventThroughput); err == nil {
			best = min(best, ns)
		}
	}
	return best
}

type probe struct {
	name string
	run  func(p *probeEnv) (float64, error)
}

// probeEnv is scratch state probes share: one testbed, one point of
// each dist-cold job kind, one journal.
type probeEnv struct {
	outDir string
	grid   *core.Sweep
	point  any    // one evaluated bench-grid point
	wire   []byte // its wire bytes
	// journal probes run in order on one scratch directory
	dir  string
	disk *persist.Disk
	job  persist.JobRecord
	reps int // takes of the probes that time whole snapshots
}

func bench(fn func(b *testing.B)) func(*probeEnv) (float64, error) {
	return func(*probeEnv) (float64, error) { return nsPerOp(fn) }
}

func scaled(f func(*probeEnv) (float64, error), by float64) func(*probeEnv) (float64, error) {
	return func(p *probeEnv) (float64, error) {
		v, err := f(p)
		return v * by, err
	}
}

// evalPoint times one point of a dist-cold job kind, evaluated the way
// a worker does: EvalPoint on a cached testbed.
func evalPoint(scenario string) func(*probeEnv) (float64, error) {
	return scaled(func(p *probeEnv) (float64, error) {
		s, ok := core.Lookup(scenario)
		if !ok {
			return 0, fmt.Errorf("unknown scenario %q", scenario)
		}
		sw := core.PlanFor(s).Sweep()
		opts := core.NewOptions()
		tb := sw.NewShardTestbed(opts)
		return nsPerOp(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sw.EvalPoint(context.Background(), tb, opts, i%len(sw.Points())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}, 1e-3)
}

// twoHosts is benchkit's two-node gigabit topology; the TCP probe
// needs the kernel in hand to count events.
func twoHosts() (*netsim.Network, netsim.NodeID, netsim.NodeID) {
	n := netsim.New(sim.NewKernel())
	a, z := n.AddNode("a"), n.AddNode("z")
	n.Connect(a, z, netsim.LinkConfig{Bps: 1e9, Delay: 500 * time.Microsecond, MTU: 9180, QueueBytes: 1 << 30})
	n.ComputeRoutes()
	return n, a.ID, z.ID
}

// perEvent times transfer and divides by the kernel events it fired.
func perEvent(k *sim.Kernel, transfer func() error) (float64, error) {
	var events int64
	ns, err := nsPerOp(func(b *testing.B) {
		before := k.Fired()
		for i := 0; i < b.N; i++ {
			if err := transfer(); err != nil {
				b.Fatal(err)
			}
		}
		events = (k.Fired() - before) / int64(b.N)
	})
	if err != nil || events == 0 {
		return 0, err
	}
	return ns / float64(events), nil
}

var probes = []probe{
	{"sim.event_ns", bench(benchkit.EventThroughput)},
	{"sim.proc_switch_ns", bench(benchkit.ProcContextSwitch)},
	{"sim.chan_ns", bench(benchkit.ChanSendRecv)},
	{"netsim.packet_ns", bench(benchkit.PacketDelivery)},
	{"netsim.hop_ns", scaled(bench(benchkit.MultiHopForwarding), 1.0/4)},
	{"tcpsim.ns_per_event", func(*probeEnv) (float64, error) {
		n, a, z := twoHosts()
		return perEvent(n.K, func() error {
			_, err := tcpsim.Transfer(n, a, z, 1<<20, tcpsim.Config{})
			return err
		})
	}},
	{"tcpsim.events_per_mib", func(*probeEnv) (float64, error) {
		n, a, z := twoHosts()
		_, err := tcpsim.Transfer(n, a, z, 1<<20, tcpsim.Config{})
		return float64(n.K.Fired()), err
	}},
	{"core.testbed_build_us", scaled(bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.New(core.Config{})
		}
	}), 1e-3)},
	{"core.testbed_ns_per_event", func(*probeEnv) (float64, error) {
		tb := core.New(core.Config{})
		return perEvent(tb.K, func() error {
			_, err := tb.TCPTransfer(core.HostWSJuelich, core.HostWSGMD, 16<<20, tcpsim.Config{WindowBytes: 4 << 20})
			return err
		})
	}},
	{"mpi.msg_overhead_us", scaled(bench(func(b *testing.B) {
		// Two ranks, no shaper: what a message costs before the WAN
		// emulation adds its sleep. One op is a ping and a pong.
		err := mpi.Run(2, func(c *mpi.Comm) error {
			peer := 1 - c.Rank()
			for i := 0; i < b.N; i++ {
				if c.Rank() == 0 {
					if err := c.Send(peer, 1, nil); err != nil {
						return err
					}
				}
				if _, err := c.Recv(peer, 1); err != nil {
					return err
				}
				if c.Rank() == 1 {
					if err := c.Send(peer, 1, nil); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}), 1e-3/2)},
	{"core.eval_point_us.fmri-dataflow", evalPoint("fmri-dataflow")},
	{"core.eval_point_us.figure2-endtoend", evalPoint("figure2-endtoend")},
	{"core.eval_point_us.bench-grid", evalPoint("bench-grid")},
	{"core.encode_point_ns", func(p *probeEnv) (float64, error) {
		return nsPerOp(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.grid.EncodePoint(p.point); err != nil {
					b.Fatal(err)
				}
			}
		})
	}},
	{"core.decode_point_ns", func(p *probeEnv) (float64, error) {
		return nsPerOp(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.grid.DecodePoint(p.wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}},
	{"core.point_key_ns", func(p *probeEnv) (float64, error) {
		opts, pts := core.NewOptions(), p.grid.Points()
		return nsPerOp(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.grid.PointKey(opts, pts[i%len(pts)])
			}
		})
	}},
	{"core.dispatch_lease_ns", func(*probeEnv) (float64, error) {
		// Drain a grid the size of bench-grid the way two consumers
		// would be served; the queue decides how many leases that is.
		leases := 0
		ns, err := nsPerOp(func(b *testing.B) {
			leases = 0
			for i := 0; i < b.N; i++ {
				d := core.NewWorkStealingDispatcher(gridPoints, fleetWorkers)
				for l, ok := d.Next("w"); ok; l, ok = d.Next("w") {
					d.Complete(l, time.Microsecond)
					leases++
				}
			}
			leases /= b.N
		})
		if err != nil || leases == 0 {
			return 0, err
		}
		return ns / float64(leases), nil
	}},
	{"persist.put_point_us", func(p *probeEnv) (float64, error) {
		if err := p.openJournal(); err != nil {
			return 0, err
		}
		return scaled(bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.disk.PutPoint(p.key(i), p.wire)
			}
		}), 1e-3)(p)
	}},
	{"persist.wal_bytes_per_point", func(p *probeEnv) (float64, error) {
		// The journal's framing tax: JSON envelope, base64 value,
		// length and CRC, per stored point. A count — it repeats.
		if err := p.disk.Snapshot(); err != nil { // empty log
			return 0, err
		}
		const n = 256
		for i := 0; i < n; i++ {
			p.disk.PutPoint(p.key(i), p.wire)
		}
		size, err := p.walSize()
		return float64(size) / n, err
	}},
	{"persist.put_job_us", func(p *probeEnv) (float64, error) {
		return scaled(bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.job.ID = fmt.Sprintf("job-%d", i%256)
				p.disk.PutJob(p.job)
			}
		}), 1e-3)(p)
	}},
	{"persist.snapshot_ms", func(p *probeEnv) (float64, error) {
		// A full store and a full job history: what the coordinator
		// stops for every 8 MiB of log.
		for i := 0; i < 4096; i++ {
			p.disk.PutPoint(p.key(i), p.wire)
		}
		for i := 0; i < 256; i++ {
			p.job.ID = fmt.Sprintf("job-%d", i)
			p.disk.PutJob(p.job)
		}
		var v []float64
		for i := 0; i < p.reps; i++ {
			t0 := time.Now()
			if err := p.disk.Snapshot(); err != nil {
				return 0, err
			}
			v = append(v, ms(time.Since(t0)))
		}
		return median(v), nil
	}},
	{"persist.recover_ms", func(p *probeEnv) (float64, error) {
		var v []float64
		for i := 0; i < p.reps; i++ {
			if err := p.disk.Close(); err != nil {
				return 0, err
			}
			t0 := time.Now()
			var err error
			if p.disk, err = persist.Open(p.dir, persist.DiskOptions{}); err != nil {
				return 0, err
			}
			v = append(v, ms(time.Since(t0)))
		}
		return median(v), nil
	}},
	{"tenant.auth_ns", func(*probeEnv) (float64, error) {
		reg, _, err := sixteenTenants()
		if err != nil {
			return 0, err
		}
		return nsPerOp(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := reg.Authenticate("Bearer token-7"); !ok {
					b.Fatal("token-7 rejected")
				}
			}
		})
	}},
	{"tenant.order_ns", func(*probeEnv) (float64, error) {
		_, names, err := sixteenTenants()
		if err != nil {
			return 0, err
		}
		s := tenant.NewScheduler()
		for i, n := range names {
			s.Charge(n, 16-i)
		}
		return nsPerOp(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Order(names)
			}
		})
	}},
}

func sixteenTenants() (*tenant.Registry, []string, error) {
	var ts []*tenant.Tenant
	var names []string
	for i := 0; i < 16; i++ {
		ts = append(ts, &tenant.Tenant{Name: fmt.Sprintf("t%d", i), Token: fmt.Sprintf("token-%d", i)})
		names = append(names, ts[i].Name)
	}
	reg, err := tenant.NewRegistry(ts)
	return reg, names, err
}

func (p *probeEnv) key(i int) string { return fmt.Sprintf("%064x", i) }

func (p *probeEnv) openJournal() (err error) {
	if p.dir, err = os.MkdirTemp(p.outDir, scratchJournal); err != nil {
		return err
	}
	p.disk, err = persist.Open(p.dir, persist.DiskOptions{})
	return err
}

func (p *probeEnv) walSize() (int64, error) {
	logs, err := filepath.Glob(filepath.Join(p.dir, "wal-*.log"))
	if err != nil || len(logs) != 1 {
		return 0, fmt.Errorf("want one log in %s, found %d (%v)", p.dir, len(logs), err)
	}
	fi, err := os.Stat(logs[0])
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// runProbes takes every probe once and records each as a span.
func runProbes(outDir string, rec *recorder, quick bool) (map[string]float64, error) {
	p := &probeEnv{outDir: outDir, reps: 5}
	if quick {
		p.reps = 1
	}
	s, _ := core.Lookup("bench-grid")
	p.grid = s.(*core.Sweep)
	opts := core.NewOptions()
	var err error
	if p.point, err = p.grid.EvalPoint(context.Background(), p.grid.NewShardTestbed(opts), opts, 0); err != nil {
		return nil, err
	}
	if p.wire, err = p.grid.EncodePoint(p.point); err != nil {
		return nil, err
	}
	// A job record the size the coordinator journals for a grid job.
	rep, err := core.RunWith(context.Background(), "bench-grid", opts)
	if err != nil {
		return nil, err
	}
	p.job = persist.JobRecord{Scenario: "bench-grid", Tenant: "bench", Status: "done", Text: rep.Text(), PointsTotal: gridPoints, PointsDone: gridPoints}
	if p.job.Report, err = rep.JSON(); err != nil {
		return nil, err
	}
	defer func() {
		if p.disk != nil {
			p.disk.Close()
		}
		if p.dir != "" {
			os.RemoveAll(p.dir)
		}
	}()
	out := make(map[string]float64)
	for _, pr := range probes {
		id := rec.begin(pr.name, layerBench, laneClient, -1, -1)
		v, err := pr.run(p)
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", pr.name, err)
		}
		out[pr.name] = v
	}
	return out, nil
}
