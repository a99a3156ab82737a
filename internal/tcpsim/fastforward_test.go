package tcpsim_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// outcome is what a transfer leaves behind that a fast-forward must not
// change: the result, the congestion window, the retransmission
// timeouts fired, the clock, every link's accounting and an empty
// schedule.
type outcome struct {
	Res     tcpsim.Result
	Err     string
	Cwnd    uint64 // bits
	RTOs    int64
	Now     sim.Time
	Wire    []int64
	Busy    []time.Duration
	Pending int
}

// transfer runs one transfer to completion and observes it; it also
// reports the periods the fast-forward skipped.
func transfer(n *netsim.Network, src, dst netsim.NodeID, nbytes int64, cfg tcpsim.Config) (outcome, int64) {
	f, err := tcpsim.Start(n, src, dst, nbytes, cfg)
	if err != nil {
		return outcome{Err: err.Error()}, 0
	}
	err = tcpsim.WaitAll(n, f)
	var res tcpsim.Result
	if err == nil {
		res, err = f.Result()
	}
	o := outcome{Res: res, Cwnd: math.Float64bits(f.Cwnd()), RTOs: f.RTOs(), Now: n.K.Now(), Pending: n.Pending()}
	if err != nil {
		o.Err = err.Error()
	}
	for _, l := range n.Links {
		o.Wire = append(o.Wire, l.WireBytes)
		o.Busy = append(o.Busy, l.BusyTime)
	}
	skipped := f.SkippedPeriods()
	f.Release()
	return o, skipped
}

// transferTwice runs a transfer of nbytes and then one of second bytes
// on the same network, with the fast-forward on or off, and reports
// both outcomes and the periods the fast-forward skipped.
func transferTwice(t testing.TB, on bool, build func() (*netsim.Network, netsim.NodeID, netsim.NodeID), nbytes, second int64, cfg tcpsim.Config) ([2]outcome, int64) {
	t.Helper()
	defer tcpsim.SetFastForward(on)()
	n, src, dst := build()
	var out [2]outcome
	var skipped int64
	for i, size := range []int64{nbytes, second} {
		o, k := transfer(n, src, dst, size, cfg)
		out[i], skipped = o, skipped+k
	}
	return out, skipped
}

// sameWithAndWithout compares the two transfers with the fast-forward
// on and off and returns the periods it skipped.
func sameWithAndWithout(t testing.TB, build func() (*netsim.Network, netsim.NodeID, netsim.NodeID), nbytes, second int64, cfg tcpsim.Config) int64 {
	t.Helper()
	want, _ := transferTwice(t, false, build, nbytes, second, cfg)
	got, skipped := transferTwice(t, true, build, nbytes, second, cfg)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("transfer %d (%d skipped periods):\nfast-forward: %+v\nsimulated:    %+v", i+1, skipped, got[i], want[i])
		}
		if got[i].Pending != 0 {
			t.Errorf("transfer %d left %d events pending", i+1, got[i].Pending)
		}
	}
	return skipped
}

func testbed(cfg core.Config, src, dst string) func() (*netsim.Network, netsim.NodeID, netsim.NodeID) {
	return func() (*netsim.Network, netsim.NodeID, netsim.NodeID) {
		tb := core.New(cfg)
		a, err := tb.Host(src)
		if err != nil {
			panic(err)
		}
		b, err := tb.Host(dst)
		if err != nil {
			panic(err)
		}
		return tb.Net, a, b
	}
}

// TestFastForwardFigure1Probes runs every figure-1 probe (96 MiB with
// a 4 MiB window) on the OC-12 and OC-48 testbeds, with and without the
// section-5 extensions, with the fast-forward on and off: results,
// clocks and link accounting must be identical, for the probe and for a
// second transfer on the network it leaves. Every probe must actually
// have skipped periods; the T3E -> SP2 probe's repeat every 5 ACKs.
func TestFastForwardFigure1Probes(t *testing.T) {
	probes := []struct {
		src, dst string
		mtu      int
	}{
		{core.HostT3E600, core.HostT3E1200, 0},
		{core.HostT3E600, core.HostSP2, 0},
		{core.HostWSJuelich, core.HostWSGMD, 0},
		{core.HostWSJuelich, core.HostWSGMD, 9180},
		{core.HostWSJuelich, core.HostWSGMD, 1500},
	}
	for _, wan := range []atm.OC{atm.OC12, atm.OC48} {
		for _, ext := range []bool{false, true} {
			for _, p := range probes {
				cfg := tcpsim.Config{WindowBytes: 4 << 20}
				if p.mtu != 0 {
					cfg.MSS = p.mtu - tcpsim.HeaderBytes
				}
				name := fmt.Sprintf("%v/ext=%v/%s-%s/mtu=%d", wan, ext, p.src, p.dst, p.mtu)
				t.Run(name, func(t *testing.T) {
					build := testbed(core.Config{WAN: wan, Extensions: ext}, p.src, p.dst)
					skipped := sameWithAndWithout(t, build, 96<<20, 12<<20, cfg)
					if skipped == 0 {
						t.Errorf("no period skipped")
					}
					t.Logf("%d periods skipped", skipped)
				})
			}
		}
	}
}

// TestFastForwardTestbedGrid compares transfers with the fast-forward
// on and off over a grid of windows, segment sizes and odd transfer
// sizes between testbed host pairs, the SP2's host I/O cap and the
// 155 Mbit/s attach included.
func TestFastForwardTestbedGrid(t *testing.T) {
	pairs := [][2]string{
		{core.HostWSJuelich, core.HostWSGMD},
		{core.HostT3E600, core.HostSP2},
		{core.HostSP2, core.HostT3E600},
		{core.HostOnyx2, core.HostWSJuelich},
		{core.HostWS155Juelich, core.HostWS2GMD},
	}
	windows := []int{8 << 10, 64 << 10, 512 << 10, 2 << 20}
	mss := []int{0, 1460, 4056, 8000}
	sizes := []int64{1<<20 + 7, 3<<20 + 1234, 6<<20 + 999}
	var total int64
	i := 0
	for _, pair := range pairs {
		for _, w := range windows {
			cfg := tcpsim.Config{WindowBytes: w, MSS: mss[i%len(mss)]}
			size := sizes[i%len(sizes)]
			i++
			name := fmt.Sprintf("%s-%s/w=%d/mss=%d/%d", pair[0], pair[1], w, cfg.MSS, size)
			t.Run(name, func(t *testing.T) {
				skipped := sameWithAndWithout(t, testbed(core.Config{}, pair[0], pair[1]), size, size/3, cfg)
				t.Logf("%d periods skipped", skipped)
				total += skipped
			})
		}
	}
	if total == 0 {
		t.Errorf("no transfer of the grid skipped a period")
	}
}

// chain builds src -> relay -> dst: a gigabit hop to a forwarding
// relay, then 622 Mbit/s to a host that drains at 300 Mbit/s, slower
// than the link delivers. Segments of 4000 bytes queue at the host and
// its drain spaces the ACKs in a pattern 3 ACKs long, so the steady
// state repeats every 3 ACKs, never every one.
func chain() (*netsim.Network, netsim.NodeID, netsim.NodeID) {
	n := netsim.New(sim.NewKernel())
	src := n.AddNode("src")
	relay := n.AddNode("relay", netsim.WithForwardCost(20*time.Microsecond, 800e6))
	dst := n.AddNode("dst", netsim.WithHostBps(300e6))
	n.Connect(src, relay, netsim.LinkConfig{Bps: 1e9, Delay: 5 * time.Microsecond})
	n.Connect(relay, dst, netsim.LinkConfig{Bps: 622e6, Delay: 100 * time.Microsecond})
	n.ComputeRoutes()
	return n, src.ID, dst.ID
}

// TestFastForwardMultiACKPeriod runs chain's transfer with the
// fast-forward on and off: the same result, cwnd bits, clock and link
// accounting, and it must have skipped most of its ACKs by a period of
// several ACKs, counting k periods of p ACKs as k×p.
func TestFastForwardMultiACKPeriod(t *testing.T) {
	cfg := tcpsim.Config{WindowBytes: 64 << 10, MSS: 4000}
	sameWithAndWithout(t, chain, 8<<20, 1<<20+5, cfg)
	n, src, dst := chain()
	f, err := tcpsim.Start(n, src, dst, 8<<20, cfg)
	if err == nil {
		err = tcpsim.WaitAll(n, f)
	}
	if err != nil {
		t.Fatal(err)
	}
	p, skipped := f.Period(), f.SkippedPeriods()
	acks := int64(8<<20+cfg.MSS-1) / int64(cfg.MSS)
	if p < 2 || skipped%p != 0 || 2*skipped < acks {
		t.Errorf("period %d, %d of %d ACKs skipped; want most skipped, by a period of several ACKs", p, skipped, acks)
	}
	t.Logf("period %d ACKs, %d ACKs skipped, %d events", p, skipped, n.K.Fired())
}

// TestFastForwardBacksOff bounds what trying costs a flow that never
// certifies: beside a foreign pending event, or beside another flow,
// every snapshot fails, and the run a period needs doubles after each
// failure up to one window of ACKs. A flow of A ACKs through a window
// of W ACKs takes at most ⌈log2 W⌉ + 2 + A/W snapshots. Alone, the
// same transfer jumps.
func TestFastForwardBacksOff(t *testing.T) {
	cfg := tcpsim.Config{WindowBytes: 256 << 10, MSS: 1460}
	const size = 16 << 20
	w := int64(cfg.WindowBytes / cfg.MSS)
	acks := int64((size + cfg.MSS - 1) / cfg.MSS)
	bound := int64(math.Ceil(math.Log2(float64(w)))) + 2 + acks/w
	run := func(t *testing.T, flows int, foreign bool) {
		n, a, z := twoHosts()
		if foreign {
			n.K.At(sim.Time(time.Hour), func() {})
		}
		fs := make([]*tcpsim.Flow, flows)
		for i := range fs {
			f, err := tcpsim.Start(n, a, z, size, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fs[i] = f
		}
		if err := tcpsim.WaitAll(n, fs...); err != nil {
			t.Fatal(err)
		}
		for i, f := range fs {
			c, skipped := f.Captures(), f.SkippedPeriods()
			t.Logf("flow %d: %d snapshots (bound %d), %d ACKs skipped", i, c, bound, skipped)
			if flows == 1 && !foreign {
				if skipped == 0 {
					t.Errorf("flow %d: alone, skipped no period", i)
				}
				continue
			}
			if skipped != 0 {
				t.Errorf("flow %d: skipped %d ACKs beside other traffic", i, skipped)
			}
			if c > bound {
				t.Errorf("flow %d: %d snapshots, want at most %d", i, c, bound)
			}
			if c == 0 {
				t.Errorf("flow %d: never tried to certify", i)
			}
		}
	}
	t.Run("alone", func(t *testing.T) { run(t, 1, false) })
	t.Run("foreign-event", func(t *testing.T) { run(t, 1, true) })
	t.Run("two-flows", func(t *testing.T) { run(t, 2, false) })
}

// TestTestbedNsPerEventTransferSkipsNothing pins the transfer the
// core.testbed_ns_per_event row times: 16 MiB from WS-Jülich to WS-GMD
// over the 64K MTU with a 4 MiB window, on a fresh default testbed. The
// row divides wall time by Kernel.Fired and a skipped period fires no
// event, so a jump would raise the row with no per-event cost moving.
// The measurement-contract note on that row in ROADMAP.md says the
// transfer skips nothing: a change that makes it jump must update that
// note along with this test.
func TestTestbedNsPerEventTransferSkipsNothing(t *testing.T) {
	n, a, z := testbed(core.Config{}, core.HostWSJuelich, core.HostWSGMD)()
	f, err := tcpsim.Start(n, a, z, 16<<20, tcpsim.Config{WindowBytes: 4 << 20})
	if err == nil {
		err = tcpsim.WaitAll(n, f)
	}
	if err != nil {
		t.Fatal(err)
	}
	if skipped, fired := f.SkippedPeriods(), n.K.Fired(); skipped != 0 || fired != 3857 {
		t.Errorf("%d ACKs skipped, %d events fired; want 0 and 3857", skipped, fired)
	}
}
