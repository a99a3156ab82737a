package video

import (
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/netsim"
	"repro/internal/sim"
)

type clipFramer struct{}

func (clipFramer) WireSize(n int) int { return atm.CLIPWireBytes(n) }
func (clipFramer) Name() string       { return "atm-clip" }

func link(payloadBps float64) (*netsim.Network, netsim.NodeID, netsim.NodeID) {
	k := sim.NewKernel()
	n := netsim.New(k)
	a := n.AddNode("studio")
	b := n.AddNode("theater")
	n.Connect(a, b, netsim.LinkConfig{
		Bps: payloadBps, Delay: 500 * time.Microsecond, MTU: 9180,
		Framer: clipFramer{}, QueueBytes: 32 << 20,
	})
	n.ComputeRoutes()
	return n, a.ID, b.ID
}

func TestD1Constants(t *testing.T) {
	// 270 Mbit/s at 25 fps = 10.8 Mbit = 1.35 MByte per frame.
	if FrameBytes != 1350000 {
		t.Errorf("FrameBytes = %d", FrameBytes)
	}
	if FrameInterval != 40*time.Millisecond {
		t.Errorf("FrameInterval = %v", FrameInterval)
	}
}

func TestStreamOverOC12AllOnTime(t *testing.T) {
	// A 270 Mbit/s stream over the OC-12 SDH payload (599 Mbit/s):
	// ample headroom, every frame on time with low jitter.
	n, a, b := link(atm.OC12.PayloadRate())
	res, err := Stream(n, a, b, StreamConfig{Frames: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.OnTime != 50 || res.Late != 0 || res.LostPackets != 0 {
		t.Errorf("OC-12: %d on time, %d late, %d lost", res.OnTime, res.Late, res.LostPackets)
	}
	if res.PeakJitter > 5*time.Millisecond {
		t.Errorf("peak jitter %v on an idle OC-12", res.PeakJitter)
	}
}

func TestStreamOverOC3Fails(t *testing.T) {
	// The OC-3 payload (149.76 Mbit/s) cannot carry 270 Mbit/s: the
	// queue grows without bound and frames fall behind or drop.
	n, a, b := link(atm.OC3.PayloadRate())
	res, err := Stream(n, a, b, StreamConfig{Frames: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.OnTime > 5 {
		t.Errorf("OC-3 delivered %d frames on time; the link is undersized", res.OnTime)
	}
	if res.Late == 0 && res.LostPackets == 0 {
		t.Error("expected lateness or loss on an undersized link")
	}
}

func TestStreamSharesOC48WithHeadroom(t *testing.T) {
	// On OC-48 the same stream is a small fraction of capacity.
	n, a, b := link(atm.OC48.PayloadRate())
	res, err := Stream(n, a, b, StreamConfig{Frames: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.OnTime != 25 {
		t.Errorf("OC-48: %d/25 on time", res.OnTime)
	}
	if res.MeanDelay > 20*time.Millisecond {
		t.Errorf("mean delay %v, want small on OC-48", res.MeanDelay)
	}
}

func TestStreamValidation(t *testing.T) {
	n, a, b := link(atm.OC12.PayloadRate())
	if _, err := Stream(n, a, b, StreamConfig{}); err == nil {
		t.Error("zero frames accepted")
	}
}
