package hippi

import (
	"testing"
	"testing/quick"
	"time"
)

func TestBursts(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {1024, 1}, {1025, 2}, {1 << 20, 1024},
	}
	for _, c := range cases {
		if got := Bursts(c.n); got != c.want {
			t.Errorf("Bursts(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPeakApproaches800(t *testing.T) {
	// The paper: 800 Mbit/s peak with >= 1 MByte blocks.
	if e := Efficiency(1 << 20); e < 0.95 {
		t.Errorf("1 MByte efficiency = %.3f, want >= 0.95", e)
	}
	if e := Efficiency(16 << 20); e < 0.98 {
		t.Errorf("16 MByte efficiency = %.3f, want >= 0.98", e)
	}
	// Small transfers are dominated by setup.
	if e := Efficiency(64); e > 0.3 {
		t.Errorf("64-byte efficiency = %.3f, want far below peak", e)
	}
	// Never exceeds the signalling rate.
	if tp := Throughput(64 << 20); tp > SignallingRate {
		t.Errorf("throughput %.0f exceeds signalling rate", tp)
	}
}

func TestTransferTimeMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return TransferTime(x) <= TransferTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroAndNegative(t *testing.T) {
	if TransferTime(0) != 0 || TransferTime(-5) != 0 {
		t.Error("zero/negative sizes should cost nothing")
	}
	if Throughput(0) != 0 {
		t.Error("Throughput(0) != 0")
	}
}

func TestGatewayForwarding(t *testing.T) {
	g := DefaultGateway("sgi-o200")
	if g.Name != "sgi-o200" {
		t.Errorf("name = %q", g.Name)
	}
	// 64 KByte packets: gateway must sustain well over 430 Mbit/s so
	// that the end-to-end TCP path (which also pays ATM framing and
	// host costs) lands in the measured range.
	bps := g.MaxForwardBps(65536)
	if bps < 450e6 {
		t.Errorf("gateway 64K forwarding = %.0f Mbit/s, want >= 450", bps/1e6)
	}
	// 1500-byte packets: per-packet cost dominates; the paper's
	// motivation for the 64 KByte MTU.
	small := g.MaxForwardBps(1500)
	if small > 250e6 {
		t.Errorf("gateway 1500B forwarding = %.0f Mbit/s, should collapse", small/1e6)
	}
	if small >= bps {
		t.Error("small-packet forwarding should be slower than large-packet")
	}
	if g.ForwardTime(-1) != g.PerPacket {
		t.Error("negative size should cost only the per-packet overhead")
	}
	if (Gateway{}).MaxForwardBps(1000) != 0 {
		t.Error("zero gateway should forward at 0")
	}
}

// Throughput reports the effective data rate in bit/s for packets of n
// bytes sent back to back.
func Throughput(n int) float64 {
	d := TransferTime(n)
	if d <= 0 {
		return 0
	}
	return float64(n) * 8 / d.Seconds()
}

// Efficiency reports Throughput(n)/SignallingRate.
func Efficiency(n int) float64 { return Throughput(n) / SignallingRate }

// ForwardTime reports the gateway residence time of an n-byte packet.
// A gateway with CopyBps <= 0 charges only the per-packet cost.
func (g Gateway) ForwardTime(n int) time.Duration {
	if n < 0 {
		n = 0
	}
	var copyT time.Duration
	if g.CopyBps > 0 {
		copyT = time.Duration(float64(n) * 8 / g.CopyBps * 1e9)
	}
	return g.PerPacket + copyT
}

// MaxForwardBps reports the forwarding rate limit in bit/s that the
// gateway imposes for packets of n bytes.
func (g Gateway) MaxForwardBps(n int) float64 {
	d := g.ForwardTime(n)
	if d <= 0 {
		return 0
	}
	return float64(n) * 8 / d.Seconds()
}
