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
// change: the result, the congestion window, the clock, every link's
// accounting and an empty schedule.
type outcome struct {
	Res     tcpsim.Result
	Err     string
	Cwnd    uint64 // bits
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
	o := outcome{Res: res, Cwnd: math.Float64bits(f.Cwnd()), Now: n.Now(), Pending: n.Pending()}
	if err != nil {
		o.Err = err.Error()
	}
	for _, l := range n.Links() {
		o.Wire = append(o.Wire, l.WireBytes())
		o.Busy = append(o.Busy, l.BusyTime())
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
// second transfer on the network it leaves. The 1500- and 9180-byte
// MTU probes must actually have skipped periods.
func TestFastForwardFigure1Probes(t *testing.T) {
	probes := []struct {
		src, dst string
		mtu      int
		jumps    bool
	}{
		{core.HostT3E600, core.HostT3E1200, 0, false},
		{core.HostT3E600, core.HostSP2, 0, false},
		{core.HostWSJuelich, core.HostWSGMD, 0, false},
		{core.HostWSJuelich, core.HostWSGMD, 9180, true},
		{core.HostWSJuelich, core.HostWSGMD, 1500, true},
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
					if p.jumps && skipped == 0 {
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
