package core

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/tcpsim"
)

func tcpConfig4MB() tcpsim.Config { return tcpsim.Config{WindowBytes: 4 << 20} }

func TestBackboneAggregateOC12Saturates(t *testing.T) {
	row, err := BackboneAggregate(atm.OC12, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Four 622-attached flows against a 599 Mbit/s backbone payload:
	// aggregate is pinned near the backbone capacity.
	if row.AggregateMbps > 545 {
		t.Errorf("OC-12 aggregate %.1f Mbit/s exceeds backbone payload", row.AggregateMbps)
	}
	if row.AggregateMbps < 420 {
		t.Errorf("OC-12 aggregate %.1f Mbit/s, poor utilization", row.AggregateMbps)
	}
}

func TestBackboneAggregateOC48LiftsLimit(t *testing.T) {
	row12, err := BackboneAggregate(atm.OC12, 4)
	if err != nil {
		t.Fatal(err)
	}
	row48, err := BackboneAggregate(atm.OC48, 4)
	if err != nil {
		t.Fatal(err)
	}
	// On OC-48 each flow gets its full attachment rate: aggregate
	// roughly 4x the single-attach ceiling and far above OC-12.
	if row48.AggregateMbps < 2.5*row12.AggregateMbps {
		t.Errorf("OC-48 aggregate %.1f vs OC-12 %.1f Mbit/s: upgrade effect missing",
			row48.AggregateMbps, row12.AggregateMbps)
	}
	if row48.AggregateMbps < 1900 || row48.AggregateMbps > 2300 {
		t.Errorf("OC-48 aggregate %.1f Mbit/s, want ~4x attach rate", row48.AggregateMbps)
	}
	for i, m := range row48.PerFlowMbps {
		if m < 450 {
			t.Errorf("flow %d on OC-48 only %.1f Mbit/s", i, m)
		}
	}
}

func TestBackboneAggregateValidation(t *testing.T) {
	if _, err := BackboneAggregate(atm.OC12, 0); err == nil {
		t.Error("0 flows accepted")
	}
	if _, err := BackboneAggregate(atm.OC12, 9); err == nil {
		t.Error("9 flows accepted")
	}
}

func TestMixedTrafficUpgradeEffect(t *testing.T) {
	m12, err := MixedTraffic(atm.OC12)
	if err != nil {
		t.Fatal(err)
	}
	m48, err := MixedTraffic(atm.OC48)
	if err != nil {
		t.Fatal(err)
	}
	// On OC-48 both workloads coexist: all frames on time and the
	// bulk flow runs at (near) full attachment rate.
	if m48.Video.OnTime != m48.Video.Frames {
		t.Errorf("OC-48: %d/%d video frames on time", m48.Video.OnTime, m48.Video.Frames)
	}
	if m48.BulkMbps < 450 {
		t.Errorf("OC-48 bulk = %.1f Mbit/s", m48.BulkMbps)
	}
	// On OC-12 the combined 270 + ~540 Mbit/s demand exceeds the 599
	// Mbit/s payload: something must give — either video lateness or
	// a markedly slowed bulk flow.
	degraded := m12.Video.OnTime < m12.Video.Frames || m12.BulkMbps < m48.BulkMbps*0.75
	if !degraded {
		t.Errorf("OC-12 mixed traffic shows no contention: video %d/%d, bulk %.1f Mbit/s",
			m12.Video.OnTime, m12.Video.Frames, m12.BulkMbps)
	}
}

// TestBackboneUtilizationDuringTransfer: a 64 MiB WAN transfer in
// 64 KByte segments nearly fills the OC-12 backbone, and leaves most of
// the OC-48 one idle. A backbone carries at most its payload rate of
// framed bytes, so TCP's goodput through it is at most that rate times
// the share of payload in a segment's CLIP frame.
func TestBackboneUtilizationDuringTransfer(t *testing.T) {
	const mss = atm.MaxCLIPMTU - tcpsim.HeaderBytes
	share := float64(mss) / float64(atm.CLIPWireBytes(atm.MaxCLIPMTU))
	for _, c := range []struct {
		wan    atm.OC
		lo, hi float64 // goodput over the backbone's goodput ceiling
	}{
		{atm.OC12, 0.85, 1},
		{atm.OC48, 0, 0.5},
	} {
		tb := New(Config{WAN: c.wan})
		res, err := tb.TCPTransfer(HostWSJuelich, HostWSGMD, 64<<20, tcpConfig4MB())
		if err != nil {
			t.Fatal(err)
		}
		u := res.ThroughputBps / (c.wan.PayloadRate() * share)
		t.Logf("%v: %.1f Mbit/s, %.3f of the backbone's goodput ceiling", c.wan, res.ThroughputBps/1e6, u)
		if res.MSS != mss || u < c.lo || u > c.hi {
			t.Errorf("%v: %.1f Mbit/s in %d-byte segments is %.3f of the backbone's goodput ceiling, want %v-%v",
				c.wan, res.ThroughputBps/1e6, res.MSS, u, c.lo, c.hi)
		}
	}
}

func Test155MbitAttachIsSlower(t *testing.T) {
	tb := New(Config{})
	r622, err := tb.TCPTransfer(HostWSJuelich, HostWSGMD, 16<<20, tcpConfig4MB())
	if err != nil {
		t.Fatal(err)
	}
	tb = New(Config{})
	r155, err := tb.TCPTransfer(HostWS155Juelich, HostWS155GMD, 16<<20, tcpConfig4MB())
	if err != nil {
		t.Fatal(err)
	}
	if r155.ThroughputBps >= r622.ThroughputBps/2 {
		t.Errorf("155 attach (%.1f) not clearly slower than 622 (%.1f)",
			r155.ThroughputBps/1e6, r622.ThroughputBps/1e6)
	}
	// And it should land near the OC-3 payload ceiling.
	if r155.ThroughputBps < 110e6 || r155.ThroughputBps > 140e6 {
		t.Errorf("155 attach = %.1f Mbit/s, want ~120-135", r155.ThroughputBps/1e6)
	}
}
