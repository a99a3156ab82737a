package netsim

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// buildSites constructs a multi-site topology: `sites` star LANs (one
// switch, hostsPer hosts on 1 Gbit/s 10 µs links) joined by 2.4 Gbit/s
// 500 µs WAN links from site 0's switch to every other site's switch.
// It returns the network and the host IDs per site.
func buildSites(k *sim.Kernel, sites, hostsPer int) (*Network, [][]NodeID) {
	n := New(k)
	hosts := make([][]NodeID, sites)
	switches := make([]*Node, sites)
	for s := 0; s < sites; s++ {
		sw := n.AddNode("sw", WithForwardCost(time.Microsecond, 16e9))
		switches[s] = sw
		for h := 0; h < hostsPer; h++ {
			nd := n.AddNode("host")
			n.Connect(nd, sw, LinkConfig{Name: "lan", Bps: 1e9, Delay: 10 * time.Microsecond})
			hosts[s] = append(hosts[s], nd.ID)
		}
	}
	for s := 1; s < sites; s++ {
		n.Connect(switches[0], switches[s], LinkConfig{
			Name: "wan", Bps: 2.4e9, Delay: 500 * time.Microsecond, QueueBytes: 64 << 20,
		})
	}
	n.ComputeRoutes()
	return n, hosts
}

// crossLoad floods packets between every pair of opposite-site hosts
// and returns the flood results plus final clock — the fingerprint the
// partitioned runs must reproduce bit for bit.
func crossLoad(n *Network, hosts [][]NodeID) ([]FloodResult, sim.Time) {
	var out []FloodResult
	sites := len(hosts)
	for s := 0; s < sites; s++ {
		for h, src := range hosts[s] {
			dst := hosts[(s+1)%sites][h]
			out = append(out, Flood(n, src, dst, 4096, 50))
		}
	}
	return out, n.Now()
}

func TestPartitionByteIdenticalFloods(t *testing.T) {
	const sites, hostsPer = 4, 3
	base, hosts := buildSites(sim.NewKernel(), sites, hostsPer)
	want, wantNow := crossLoad(base, hosts)

	for _, kernels := range []int{2, 4, 8} {
		n, hosts := buildSites(sim.NewKernel(), sites, hostsPer)
		eff := n.Partition(kernels)
		if kernels <= sites && eff != kernels {
			t.Fatalf("Partition(%d) = %d effective kernels", kernels, eff)
		}
		if eff > sites {
			t.Fatalf("Partition(%d) = %d, more than %d sites", kernels, eff, sites)
		}
		got, gotNow := crossLoad(n, hosts)
		if gotNow != wantNow {
			t.Fatalf("kernels=%d: final clock %v, want %v", kernels, gotNow, wantNow)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("kernels=%d flood %d: %+v != %+v", kernels, i, got[i], want[i])
			}
		}
		if st := n.SyncStats(); st.Rounds == 0 || st.NullMessages == 0 {
			t.Fatalf("kernels=%d: no synchronization recorded: %+v", kernels, st)
		}
	}
}

func TestPartitionLookaheadIsMinCutDelay(t *testing.T) {
	n, _ := buildSites(sim.NewKernel(), 2, 1)
	if n.Lookahead() != 0 {
		t.Fatal("lookahead before Partition")
	}
	if eff := n.Partition(2); eff != 2 {
		t.Fatalf("effective kernels = %d", eff)
	}
	if la := n.Lookahead(); la != 500*time.Microsecond {
		t.Fatalf("lookahead = %v, want 500µs", la)
	}
}

func TestPartitionSingleComponentStaysSerial(t *testing.T) {
	k := sim.NewKernel()
	n := New(k)
	a, b := n.AddNode("a"), n.AddNode("b")
	n.Connect(a, b, LinkConfig{Bps: 1e9, Delay: 10 * time.Microsecond})
	n.ComputeRoutes()
	if eff := n.Partition(4); eff != 1 {
		t.Fatalf("LAN-only network split into %d", eff)
	}
	if n.Kernels() != 1 || n.KernelOf(a.ID) != k {
		t.Fatal("single-component network was rebound")
	}
}

func TestPartitionGuards(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}

	n, _ := buildSites(sim.NewKernel(), 2, 1)
	n.Partition(2)
	expectPanic("double partition", func() { n.Partition(2) })
	expectPanic("connect after partition", func() {
		n.Connect(n.Node(0), n.Node(1), LinkConfig{Bps: 1e9})
	})

	n2, hosts2 := buildSites(sim.NewKernel(), 2, 1)
	n2.Send(&Packet{Src: hosts2[0][0], Dst: hosts2[1][0], Bytes: 100})
	expectPanic("partition with scheduled events", func() { n2.Partition(2) })
}

// pingHandler bounces a pooled packet between two hosts, the hop count
// riding in Seq. Chains from opposite sites mirror each other, so every
// partition pool's gets and puts balance exactly each round.
type pingHandler struct {
	n    *Network
	hops int64
}

func (h *pingHandler) HandleDeliver(p *Packet) {
	if p.Seq >= h.hops {
		return
	}
	r := h.n.NewPacketAt(p.Dst)
	r.Src, r.Dst, r.Bytes, r.Seq = p.Dst, p.Src, p.Bytes, p.Seq+1
	r.Handler = h
	h.n.Send(r)
}

func (h *pingHandler) HandleDrop(*Packet) {}

// TestPartitionedRunZeroAlloc pins the hot-path allocation contract
// across partitions: after one warmup run (event pools, packet pools,
// queue buffers and the runtime's free goroutines all settle), repeated
// synchronized runs — each spawning and joining its worker goroutines —
// allocate nothing.
func TestPartitionedRunZeroAlloc(t *testing.T) {
	n, hosts := buildSites(sim.NewKernel(), 2, 2)
	if eff := n.Partition(2); eff != 2 {
		t.Fatalf("effective kernels = %d", eff)
	}
	h := &pingHandler{n: n, hops: 100}
	round := func() {
		// Mirrored bidirectional chains: every packet a site-0 chain
		// retires in site 1's pool is matched by a site-1 chain retiring
		// one in site 0's, so neither partition pool drains.
		for i := 0; i < 2; i++ {
			p := n.NewPacketAt(hosts[0][i])
			p.Src, p.Dst, p.Bytes = hosts[0][i], hosts[1][i], 1024
			p.Handler = h
			n.Send(p)
			q := n.NewPacketAt(hosts[1][i])
			q.Src, q.Dst, q.Bytes = hosts[1][i], hosts[0][i], 1024
			q.Handler = h
			n.Send(q)
		}
		n.Run()
	}
	round() // warmup
	if allocs := testing.AllocsPerRun(5, round); allocs > 0 {
		t.Fatalf("partitioned steady-state run allocated %.1f/op, want 0", allocs)
	}
}

// shapeSpec is one generated topology plus the traffic to drive over it,
// drawn once per seed so the serial and every partitioned build see the
// same shape and the same load.
type shapeSpec struct {
	sites  []siteSpec
	wans   []wanSpec
	phases [2]phaseSpec
}

type siteSpec struct{ lans []LinkConfig }

type wanSpec struct {
	a, b int
	cfg  LinkConfig
}

// phaseSpec is one Run's worth of load: bounce chains started together
// with one open-loop flood. Hosts are (site, index) pairs.
type phaseSpec struct {
	chains []chainSpec
	flood  chainSpec
}

type chainSpec struct {
	src, dst    [2]int
	bytes, hops int
}

// randomShape draws a connected graph of 2-5 sites — 1-4 hosts behind a
// forwarding switch each, LAN delays 1-20 µs — whose inter-site links
// all carry 150 µs-5 ms, so every one of them is cut and the partitions
// synchronize on unequal per-pair horizons. Bandwidths and queue depths
// are mixed so some floods overflow a queue and the drop path crosses
// partitions too.
func randomShape(rng *rand.Rand) shapeSpec {
	var sp shapeSpec
	lanBps := []float64{100e6, 622e6, 1e9}
	wanBps := []float64{155e6, 622e6, 2.4e9}
	queues := []int64{0, 0, 32 << 10} // 0 = the 8 MiB default
	sp.sites = make([]siteSpec, 2+rng.Intn(4))
	for s := range sp.sites {
		for h := 1 + rng.Intn(4); h > 0; h-- {
			sp.sites[s].lans = append(sp.sites[s].lans, LinkConfig{
				Name: "lan", Bps: lanBps[rng.Intn(len(lanBps))],
				Delay: time.Duration(1+rng.Intn(20)) * time.Microsecond,
			})
		}
	}
	wan := func(a, b int) {
		sp.wans = append(sp.wans, wanSpec{a, b, LinkConfig{
			Name: "wan", Bps: wanBps[rng.Intn(len(wanBps))],
			Delay:      150*time.Microsecond + time.Duration(rng.Int63n(int64(4850*time.Microsecond))),
			QueueBytes: queues[rng.Intn(len(queues))],
		}})
	}
	for s := 1; s < len(sp.sites); s++ {
		wan(rng.Intn(s), s) // spanning tree: connected by construction
	}
	for a := range sp.sites {
		for b := a + 1; b < len(sp.sites); b++ {
			if rng.Intn(4) == 0 {
				wan(a, b) // extra edges: cycles, parallel links
			}
		}
	}
	host := func() [2]int {
		s := rng.Intn(len(sp.sites))
		return [2]int{s, rng.Intn(len(sp.sites[s].lans))}
	}
	pair := func() (a, b [2]int) {
		for a, b = host(), host(); a == b; b = host() {
		}
		return a, b
	}
	for ph := range sp.phases {
		for c := 2 + rng.Intn(5); c > 0; c-- {
			src, dst := pair()
			sp.phases[ph].chains = append(sp.phases[ph].chains,
				chainSpec{src, dst, 64 + rng.Intn(8000), 5 + rng.Intn(36)})
		}
		src, dst := pair()
		sp.phases[ph].flood = chainSpec{src, dst, 4096, 20 + rng.Intn(30)}
	}
	return sp
}

// shapeTrace is everything a run of a shape exposes: per-host delivery
// fingerprints, the flood results, the drop count and the clocks.
type shapeTrace struct {
	hosts  []uint64 // by NodeID: order-sensitive hash of (time, src, seq)
	floods [2]FloodResult
	drops  int64
	clocks [2]sim.Time // Run()'s return value after each phase
}

// traceHandler is pingHandler with a record: each delivery folds into
// the receiving host's fingerprint. A host belongs to one kernel, so its
// slot is only ever written from that kernel's goroutine; drops can fire
// on any kernel and are counted atomically.
type traceHandler struct {
	n     *Network
	hosts []uint64
	drops atomic.Int64
}

func (h *traceHandler) HandleDeliver(p *Packet) {
	fp := h.hosts[p.Dst]
	for _, v := range [...]uint64{uint64(h.n.KernelOf(p.Dst).Now()), uint64(p.Src), uint64(p.Seq)} {
		fp = (fp ^ v) * 1099511628211
	}
	h.hosts[p.Dst] = fp
	if p.Seq >= p.Aux {
		return
	}
	r := h.n.NewPacketAt(p.Dst)
	r.Src, r.Dst, r.Bytes, r.Seq, r.Aux = p.Dst, p.Src, p.Bytes, p.Seq+1, p.Aux
	r.Handler = h
	h.n.Send(r)
}

func (h *traceHandler) HandleDrop(*Packet) { h.drops.Add(1) }

// runShape builds sp, partitions it across up to kernels kernels and
// drives both phases, returning the trace and the effective kernel
// count.
func runShape(sp shapeSpec, kernels int) (shapeTrace, int) {
	n := New(sim.NewKernel())
	ids := make([][]NodeID, len(sp.sites))
	switches := make([]*Node, len(sp.sites))
	for s, site := range sp.sites {
		switches[s] = n.AddNode("sw", WithForwardCost(time.Microsecond, 16e9))
		for _, lan := range site.lans {
			nd := n.AddNode("host")
			n.Connect(nd, switches[s], lan)
			ids[s] = append(ids[s], nd.ID)
		}
	}
	for _, w := range sp.wans {
		n.Connect(switches[w.a], switches[w.b], w.cfg)
	}
	n.ComputeRoutes()
	eff := n.Partition(kernels)

	h := &traceHandler{n: n, hosts: make([]uint64, n.Nodes())}
	id := func(at [2]int) NodeID { return ids[at[0]][at[1]] }
	var tr shapeTrace
	for ph, phase := range sp.phases {
		for _, c := range phase.chains {
			p := n.NewPacketAt(id(c.src))
			p.Src, p.Dst, p.Bytes, p.Aux = id(c.src), id(c.dst), c.bytes, int64(c.hops)
			p.Handler = h
			n.Send(p)
		}
		f := phase.flood
		tr.floods[ph] = Flood(n, id(f.src), id(f.dst), f.bytes, f.hops) // runs the chains too
		tr.clocks[ph] = n.Run()
	}
	tr.hosts = h.hosts
	tr.drops = h.drops.Load()
	for i := 0; i < n.Nodes(); i++ {
		tr.drops += n.Node(NodeID(i)).Drops()
	}
	return tr, eff
}

// TestRandomTopologiesByteIdentical is the differential test over
// generated shapes: whatever the graph, the cut latencies and the load,
// a run partitioned across 2, 3 or 4 kernels must reproduce the serial
// run's delivery fingerprints, flood results, drop count and clocks —
// over two Runs of the same network, so the second starts from the
// first's resynchronized clocks and warm queues.
func TestRandomTopologiesByteIdentical(t *testing.T) {
	shapes := 100
	if testing.Short() {
		shapes = 20
	}
	dropped := 0
	for seed := int64(1); seed <= int64(shapes); seed++ {
		sp := randomShape(rand.New(rand.NewSource(seed)))
		want, _ := runShape(sp, 1)
		if want.floods[0].Dropped+want.floods[1].Dropped > 0 {
			dropped++
		}
		for _, kernels := range []int{2, 3, 4} {
			got, eff := runShape(sp, kernels)
			if wantEff := min(kernels, len(sp.sites)); eff != wantEff {
				t.Fatalf("seed %d: Partition(%d) over %d sites = %d effective kernels, want %d",
					seed, kernels, len(sp.sites), eff, wantEff)
			}
			if got.floods != want.floods || got.drops != want.drops || got.clocks != want.clocks {
				t.Fatalf("seed %d kernels %d:\n got floods %+v drops %d clocks %v\nwant floods %+v drops %d clocks %v",
					seed, kernels, got.floods, got.drops, got.clocks, want.floods, want.drops, want.clocks)
			}
			for id := range want.hosts {
				if got.hosts[id] != want.hosts[id] {
					t.Fatalf("seed %d kernels %d: host %d delivery fingerprint %#x, want %#x",
						seed, kernels, id, got.hosts[id], want.hosts[id])
				}
			}
		}
	}
	if dropped == 0 {
		t.Fatalf("none of %d shapes dropped a packet: the drop path went untested", shapes)
	}
}
