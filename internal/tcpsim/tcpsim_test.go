package tcpsim

import (
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// atmFramer adapts CLIP-over-AAL5 framing to netsim.
type atmFramer struct{}

func (atmFramer) WireSize(n int) int { return atm.CLIPWireBytes(n) }
func (atmFramer) Name() string       { return "atm-clip" }

func wanPair(mtu int, hostBps float64) (*netsim.Network, netsim.NodeID, netsim.NodeID) {
	k := sim.NewKernel()
	n := netsim.New(k)
	a := n.AddNode("juelich")
	var b *netsim.Node
	if hostBps > 0 {
		b = n.AddNode("staugustin", netsim.WithHostBps(hostBps))
	} else {
		b = n.AddNode("staugustin")
	}
	// OC-12 payload rate, 100 km of fiber (~0.5 ms one way).
	n.Connect(a, b, netsim.LinkConfig{
		Bps: atm.OC12.PayloadRate(), Delay: 500 * time.Microsecond,
		MTU: mtu, Framer: atmFramer{}, QueueBytes: 16 << 20,
	})
	n.ComputeRoutes()
	return n, a.ID, b.ID
}

func TestBulkTransferNearLinkRate(t *testing.T) {
	n, a, b := wanPair(65536, 0)
	res, err := Transfer(n, a, b, 256<<20, Config{WindowBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// OC-12 ATM payload is ~542 Mbit/s; minus AAL5/LLC/TCP overhead
	// a big-window 64K-MTU transfer should land between 500 and 542.
	if res.ThroughputBps < 500e6 || res.ThroughputBps > 545e6 {
		t.Errorf("throughput = %.1f Mbit/s, want ~500-545", res.ThroughputBps/1e6)
	}
	if res.Retransmits != 0 {
		t.Errorf("%d retransmits on a clean path", res.Retransmits)
	}
}

func TestSmallMTUHurtsThroughput(t *testing.T) {
	big, a, b := wanPair(65536, 0)
	resBig, err := Transfer(big, a, b, 64<<20, Config{WindowBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	small, c, d := wanPair(1500, 0)
	resSmall, err := Transfer(small, c, d, 64<<20, Config{WindowBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if resSmall.ThroughputBps >= resBig.ThroughputBps {
		t.Errorf("1500-MTU (%.1f) should be slower than 64K-MTU (%.1f) Mbit/s",
			resSmall.ThroughputBps/1e6, resBig.ThroughputBps/1e6)
	}
	if resSmall.MSS != 1460 || resBig.MSS != 65496 {
		t.Errorf("MSS derivation: got %d and %d", resSmall.MSS, resBig.MSS)
	}
}

func TestWindowLimitsThroughput(t *testing.T) {
	// With a tiny window, throughput ~= W/RTT regardless of link rate.
	n, a, b := wanPair(65536, 0)
	res, err := Transfer(n, a, b, 16<<20, Config{WindowBytes: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rtt := res.SRTT.Seconds()
	if rtt <= 0 {
		t.Fatal("no RTT estimate")
	}
	predicted := float64(128<<10) * 8 / rtt
	ratio := res.ThroughputBps / predicted
	if ratio < 0.5 || ratio > 1.2 {
		t.Errorf("window-limited: got %.1f Mbit/s, W/RTT predicts %.1f (ratio %.2f)",
			res.ThroughputBps/1e6, predicted/1e6, ratio)
	}
}

func TestHostIOCapsTransfer(t *testing.T) {
	// SP2 microchannel model: 264 Mbit/s host cap on a 599 Mbit/s
	// link — the paper's ">260 Mbit/s T3E to SP2" observation.
	n, a, b := wanPair(65536, 264e6)
	res, err := Transfer(n, a, b, 128<<20, Config{WindowBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputBps > 266e6 || res.ThroughputBps < 240e6 {
		t.Errorf("host-capped throughput = %.1f Mbit/s, want ~250-265", res.ThroughputBps/1e6)
	}
}

func TestTinyTransfer(t *testing.T) {
	n, a, b := wanPair(65536, 0)
	res, err := Transfer(n, a, b, 100, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 100 {
		t.Errorf("bytes = %d", res.Bytes)
	}
	// One segment + ACK: duration ~ 1 RTT.
	if res.Duration < time.Millisecond || res.Duration > 5*time.Millisecond {
		t.Errorf("100-byte transfer took %v, want ~1 ms RTT", res.Duration)
	}
}

func TestRecoveryFromDrops(t *testing.T) {
	// Constrain the queue so slow start overshoots and drops, then
	// verify the transfer still completes with retransmits.
	k := sim.NewKernel()
	n := netsim.New(k)
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.Connect(a, b, netsim.LinkConfig{
		Bps: 100e6, Delay: 2 * time.Millisecond, MTU: 9180,
		QueueBytes: 64 << 10, // only ~7 packets of buffer
	})
	n.ComputeRoutes()
	res, err := Transfer(n, a.ID, b.ID, 16<<20, Config{WindowBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmits == 0 {
		t.Error("expected drops and retransmits with a 64 KiB queue")
	}
	if res.ThroughputBps <= 0 {
		t.Error("no forward progress")
	}
}

func TestUnreachableErrors(t *testing.T) {
	k := sim.NewKernel()
	n := netsim.New(k)
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.ComputeRoutes()
	if _, err := Transfer(n, a.ID, b.ID, 1000, Config{}); err == nil {
		t.Error("transfer to unreachable host should error")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Bytes: 1 << 20, Duration: time.Second, ThroughputBps: 8e6, MSS: 1460}
	if r.String() == "" {
		t.Error("empty String")
	}
}

// A socket buffer smaller than one segment (8 KiB window over the
// default 9180-byte CLIP MTU) used to stall silently: pump's admission
// check nextSeq-ackSeq+mss <= window could never pass, and WaitAll
// died with "flows stalled with no pending events". The effective
// window is now clamped to one MSS, degrading to stop-and-wait.
func TestSubMSSWindowDoesNotStall(t *testing.T) {
	n, a, b := wanPair(9180, 0)
	res, err := Transfer(n, a, b, 1<<20, Config{WindowBytes: 8 << 10})
	if err != nil {
		t.Fatalf("sub-MSS window transfer failed: %v", err)
	}
	if res.Bytes != 1<<20 {
		t.Errorf("transferred %d bytes, want %d", res.Bytes, 1<<20)
	}
	// Stop-and-wait over a ~1 ms RTT path: one MSS per RTT, far below
	// link rate but decidedly nonzero.
	if res.ThroughputBps <= 0 {
		t.Errorf("throughput = %v, want > 0", res.ThroughputBps)
	}
	// The clamp must not let a tiny window outperform a real one.
	wide, c, d := wanPair(9180, 0)
	resWide, err := Transfer(wide, c, d, 1<<20, Config{WindowBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputBps >= resWide.ThroughputBps {
		t.Errorf("sub-MSS window %.1f Mbit/s >= 1 MiB window %.1f Mbit/s",
			res.ThroughputBps/1e6, resWide.ThroughputBps/1e6)
	}
}

// The send-timestamp ring must survive window growth, wraparound and
// go-back-N generations without mixing up segments; an end-to-end
// transfer with forced drops exercises all three (this pins the
// map -> ring replacement).
func TestSendTSRingSurvivesRetransmits(t *testing.T) {
	k := sim.NewKernel()
	n := netsim.New(k)
	a := n.AddNode("a")
	b := n.AddNode("b")
	// A queue this small overflows mid-slow-start, forcing drops and
	// go-back-N generation bumps.
	n.Connect(a, b, netsim.LinkConfig{
		Bps: 100e6, Delay: 500 * time.Microsecond,
		MTU: 9180, QueueBytes: 64 << 10,
	})
	n.ComputeRoutes()
	res, err := Transfer(n, a.ID, b.ID, 8<<20, Config{WindowBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmits == 0 {
		t.Fatal("no retransmits; the go-back-N generation path was not exercised")
	}
	if res.SRTT <= 0 {
		t.Errorf("no RTT samples surfaced: SRTT = %v", res.SRTT)
	}
}

// A zero-byte transfer must complete immediately (nothing to send, so
// no ACK will ever arrive to drive completion), and a negative size is
// a config error — neither may stall WaitAll.
func TestDegenerateTransferSizes(t *testing.T) {
	n, a, b := wanPair(9180, 0)
	res, err := Transfer(n, a, b, 0, Config{})
	if err != nil {
		t.Fatalf("zero-byte transfer: %v", err)
	}
	if res.Bytes != 0 || res.Duration != 0 || res.ThroughputBps != 0 {
		t.Errorf("zero-byte result = %+v, want all-zero", res)
	}
	if _, err := Start(n, a, b, -1, Config{}); err == nil {
		t.Error("negative transfer size accepted")
	}
}

// lossyPath is a fast access link into a slow bottleneck whose queue
// holds one or two segments: slow start overshoots it, the drops come
// back as duplicate ACKs (fast retransmit), and a go-back-N burst into
// the same queue loses retransmissions too, so the RTO fires.
func lossyPath(queue int64, mtu int) (*netsim.Network, netsim.NodeID, netsim.NodeID) {
	n := netsim.New(sim.NewKernel())
	a, r, b := n.AddNode("a"), n.AddNode("r"), n.AddNode("b")
	n.Connect(a, r, netsim.LinkConfig{Bps: 1e9, Delay: 50 * time.Microsecond, MTU: mtu})
	n.Connect(r, b, netsim.LinkConfig{Bps: 50e6, Delay: 2 * time.Millisecond, MTU: mtu, QueueBytes: queue})
	n.ComputeRoutes()
	return n, a.ID, b.ID
}

// TestLossyTransferPinned pins lossy transfers exactly as the kernel's
// event order makes them: Duration, Retransmits and SRTT, how many of
// the retransmissions were RTO firings and how many fast retransmits,
// and the clock once the kernel has run dry. Each depends on where every
// RTO event sits in the (at, seq) order — the 1 ms floor fires the timer
// spuriously thousands of times — so a change to how the timer is kept
// that moved one event, or left one pending past the transfer, shows here.
func TestLossyTransferPinned(t *testing.T) {
	for _, tc := range []struct {
		name            string
		queue           int64
		mtu             int
		bytes           int64
		cfg             Config
		dur, srtt       time.Duration
		end             sim.Time
		rtx, rtos, fast int
	}{
		{"ethernet", 2 << 10, 1500, 2 << 20, Config{WindowBytes: 32 << 10, RTOMin: 10 * time.Millisecond},
			843726080, 4353299, 843726080, 20, 6, 14},
		{"ethernet-spurious-rto", 2 << 10, 1500, 2 << 20, Config{WindowBytes: 32 << 10, RTOMin: time.Millisecond},
			3306100800, 459485, 3309768483, 2160, 2160, 0},
		{"clip", 10 << 10, 9180, 2 << 20, Config{WindowBytes: 64 << 10, RTOMin: 10 * time.Millisecond},
			559807360, 5936693, 559807360, 17, 0, 17},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, a, b := lossyPath(tc.queue, tc.mtu)
			f, err := Start(n, a, b, tc.bytes, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := f.s
			rtos, fast := 0, 0
			for n.K.Step() {
				if s.rtx > rtos+fast {
					if s.retries > 0 {
						rtos++
					} else {
						fast++
					}
				}
			}
			res, err := f.Result()
			if err != nil {
				t.Fatal(err)
			}
			end := n.K.Now()
			if res.Duration != tc.dur || res.SRTT != tc.srtt || end != tc.end ||
				res.Retransmits != tc.rtx || rtos != tc.rtos || fast != tc.fast {
				t.Errorf("got Duration %d SRTT %d end %d Retransmits %d (%d RTO, %d fast), want %d %d %d %d (%d RTO, %d fast)",
					res.Duration, res.SRTT, end, res.Retransmits, rtos, fast, tc.dur, tc.srtt, tc.end, tc.rtx, tc.rtos, tc.fast)
			}
		})
	}
}
