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
// change: the result (SRTT included), the congestion window, the
// retransmission timeouts fired, the clock and an empty schedule.
type outcome struct {
	Res     tcpsim.Result
	Err     string
	Cwnd    uint64 // bits
	RTOs    int64
	Now     sim.Time
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

// sameAfterJump runs a transfer of nbytes with the fast-forward on
// until its first jump, and with it off until the same cumulative ACK,
// and compares the sender's state there: the estimator the jump
// replayed, the timer key it re-armed, the clock. It returns the
// segment of the cumulative ACK the jump started from.
func sameAfterJump(t *testing.T, build func() (*netsim.Network, netsim.NodeID, netsim.NodeID), nbytes int64, cfg tcpsim.Config) (from int64) {
	t.Helper()
	var got tcpsim.Sender
	for _, on := range []bool{true, false} {
		restore := tcpsim.SetFastForward(on)
		n, a, z := build()
		f, err := tcpsim.Start(n, a, z, nbytes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for n.K.Step() {
			if on && f.SkippedPeriods() > 0 {
				got, from = f.State(), f.CertifiedAt()
				break
			}
			if !on && f.State().AckSeg == got.AckSeg {
				if want := f.State(); got != want {
					t.Errorf("after the jump to ACK %d:\nfast-forward: %+v\nsimulated:    %+v", got.AckSeg, got, want)
				}
				break
			}
		}
		if on && f.SkippedPeriods() == 0 {
			t.Fatal("no period skipped")
		}
		restore()
	}
	return from
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
// section-5 extensions, with the fast-forward on and off: results and
// clocks must be identical, for the probe and for a
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
// fast-forward on and off: the same result, cwnd bits and clock, and it
// must have skipped most of its ACKs by a period of
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

// TestTestbedNsPerEventTransferFires1936Events pins the transfer the
// core.testbed_ns_per_event row times: 16 MiB from WS-Jülich to WS-GMD
// over the 64K MTU with a 4 MiB window, on a fresh default testbed. It
// jumps at its window cap, over 128 ACKs, and fires 1 936 events. The
// row divides wall time by Kernel.Fired and a skipped period fires no
// event, so a change in where the transfer jumps moves the row with no
// per-event cost moving. The measurement-contract note on that row in
// ROADMAP.md gives these numbers: a change that moves them must update
// that note along with this test.
func TestTestbedNsPerEventTransferFires1936Events(t *testing.T) {
	n, a, z := testbed(core.Config{}, core.HostWSJuelich, core.HostWSGMD)()
	f, err := tcpsim.Start(n, a, z, 16<<20, tcpsim.Config{WindowBytes: 4 << 20})
	if err == nil {
		err = tcpsim.WaitAll(n, f)
	}
	if err != nil {
		t.Fatal(err)
	}
	if skipped, fired := f.SkippedPeriods(), n.K.Fired(); skipped != 128 || fired != 1936 {
		t.Errorf("%d ACKs skipped, %d events fired; want 128 and 1936", skipped, fired)
	}
}

// TestFigure1ProbeEventsPinned pins what each figure-1 probe (96 MiB
// with a 4 MiB window on a fresh default testbed, as
// BenchmarkFigure1Probe in internal/core runs it) fires and skips. The
// probes jump at their window cap, while the RTT estimator is still
// settling; a change that makes them certify later fires more events
// and fails here.
func TestFigure1ProbeEventsPinned(t *testing.T) {
	for _, p := range []struct {
		name, src, dst  string
		mtu             int
		events, skipped int64
	}{
		{"HiPPI", core.HostT3E600, core.HostT3E1200, 0, 1148, 1346},
		{"T3E-SP2", core.HostT3E600, core.HostSP2, 0, 6427, 1245},
		{"ATM-64K", core.HostWSJuelich, core.HostWSGMD, 0, 1935, 1408},
		{"CLIP-9180", core.HostWSJuelich, core.HostWSGMD, 9180, 13783, 10095},
		{"Ethernet", core.HostWSJuelich, core.HostWSGMD, 1500, 92317, 63173},
	} {
		cfg := tcpsim.Config{WindowBytes: 4 << 20}
		if p.mtu != 0 {
			cfg.MSS = p.mtu - tcpsim.HeaderBytes
		}
		n, a, z := testbed(core.Config{}, p.src, p.dst)()
		f, err := tcpsim.Start(n, a, z, 96<<20, cfg)
		if err == nil {
			err = tcpsim.WaitAll(n, f)
		}
		if err != nil {
			t.Fatal(err)
		}
		if fired, skipped := n.K.Fired(), f.SkippedPeriods(); fired != p.events || skipped != p.skipped {
			t.Errorf("%s: %d events fired, %d ACKs skipped; want %d and %d", p.name, fired, skipped, p.events, p.skipped)
		}
		f.Release()
	}
}

// TestFastForwardBeforeTheEstimatorSettles: the 1500-MTU probe's window
// caps after about one window of ACKs, and the segments slow start sent
// before the cap are acknowledged during the next window, so its RTT
// samples settle only after about two windows. The flow certifies
// before that and the jump replays the estimator: the same result, SRTT
// included, as the full simulation.
func TestFastForwardBeforeTheEstimatorSettles(t *testing.T) {
	cfg := tcpsim.Config{WindowBytes: 4 << 20, MSS: 1500 - tcpsim.HeaderBytes}
	build := testbed(core.Config{}, core.HostWSJuelich, core.HostWSGMD)
	sameWithAndWithout(t, build, 24<<20, 3<<20, cfg)
	w := int64(cfg.WindowBytes / cfg.MSS)
	if from := sameAfterJump(t, build, 24<<20, cfg); from >= 2*w {
		t.Errorf("jumped from ACK %d; want a jump from before ACK %d, two windows in", from, 2*w)
	}
}

// TestFastForwardReplaysEstimatorOverLongPeriod: the T3E -> SP2 probe's
// steady state repeats every 5 ACKs, and the jump replays the estimator
// over the certified period's 5 ACK offsets.
func TestFastForwardReplaysEstimatorOverLongPeriod(t *testing.T) {
	cfg := tcpsim.Config{WindowBytes: 4 << 20}
	build := testbed(core.Config{}, core.HostT3E600, core.HostSP2)
	sameWithAndWithout(t, build, 32<<20, 5<<20, cfg)
	sameAfterJump(t, build, 32<<20, cfg)
	n, a, z := build()
	f, err := tcpsim.Start(n, a, z, 32<<20, cfg)
	if err == nil {
		err = tcpsim.WaitAll(n, f)
	}
	if err != nil {
		t.Fatal(err)
	}
	if p, skipped := f.Period(), f.SkippedPeriods(); p != 5 || skipped == 0 || skipped%p != 0 {
		t.Errorf("period %d, %d ACKs skipped; want whole periods of 5 skipped", p, skipped)
	}
	f.Release()
}

// TestFastForwardMovesTheTimerBack: with an RTOMin below the RTT
// estimate, rto() follows the estimator, which the jump replays; here it
// ends lower than it was at the certificate, so the timer's pending
// event, shifted with the network, would lie beyond the timer's new key
// and must be moved back to it. The pending event must sit at or before
// the key after every event, and the transfer come out as the full
// simulation's.
func TestFastForwardMovesTheTimerBack(t *testing.T) {
	build := func() (*netsim.Network, netsim.NodeID, netsim.NodeID) {
		n := netsim.New(sim.NewKernel())
		src := n.AddNode("src", netsim.WithHostBps(264e6))
		dst := n.AddNode("dst", netsim.WithHostBps(300e6))
		n.Connect(src, dst, netsim.LinkConfig{Bps: 2.406e9, Delay: 52, MTU: 9180, Framer: core.ATMFramer{}, QueueBytes: 256 << 10})
		n.ComputeRoutes()
		return n, src.ID, dst.ID
	}
	cfg := tcpsim.Config{MSS: 1460, WindowBytes: 16 << 10, RTOMin: 298 * time.Microsecond}
	const size = 2 << 20
	sameWithAndWithout(t, build, size, size/3, cfg)
	sameAfterJump(t, build, size, cfg)
	n, a, z := build()
	f, err := tcpsim.Start(n, a, z, size, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jumped, movedBack := false, false
	for n.K.Step() {
		inOrder, atKey := f.TimerInOrder()
		if !inOrder {
			t.Fatalf("at %v (%d ACKs skipped): the timer's pending event lies beyond its key", n.K.Now(), f.SkippedPeriods())
		}
		if !jumped && f.SkippedPeriods() > 0 {
			jumped, movedBack = true, atKey
		}
	}
	if _, err := f.Result(); err != nil {
		t.Fatal(err)
	}
	if !jumped || !movedBack {
		t.Errorf("jumped %v, timer event at its key after the jump %v; want both", jumped, movedBack)
	}
	f.Release()
}

// TestFastForwardRefusesPeriodOutgrowingRing: the jump reads the
// certified period's send stamps from the ring, so a period of more
// segments than the ring holds cannot be replayed and must not jump.
// Start sizes the ring to the window plus two segments, and the flows
// whose window is under three segments repeat within two ACKs, so no
// flow Start sizes meets this; the test cuts the ring of chain's flow,
// whose period is 3 ACKs of one segment, to 2 slots.
func TestFastForwardRefusesPeriodOutgrowingRing(t *testing.T) {
	cfg := tcpsim.Config{WindowBytes: 64 << 10, MSS: 4000}
	const size = 8 << 20
	var want [2]outcome
	var skipped [2]int64
	for i, on := range []bool{false, true} {
		restore := tcpsim.SetFastForward(on)
		n, a, z := chain()
		f, err := tcpsim.Start(n, a, z, size, cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.ShrinkStampRing(2)
		err = tcpsim.WaitAll(n, f)
		o := outcome{Cwnd: math.Float64bits(f.Cwnd()), RTOs: f.RTOs(), Now: n.K.Now(), Pending: n.Pending()}
		if err == nil {
			o.Res, err = f.Result()
		}
		if err != nil {
			o.Err = err.Error()
		}
		want[i], skipped[i] = o, f.SkippedPeriods()
		if on && f.Period() != 3 {
			t.Errorf("tried a period of %d ACKs, want 3", f.Period())
		}
		f.Release()
		restore()
	}
	if want[0] != want[1] || skipped[1] != 0 {
		t.Errorf("%d ACKs skipped:\nfast-forward: %+v\nsimulated:    %+v", skipped[1], want[1], want[0])
	}
}
