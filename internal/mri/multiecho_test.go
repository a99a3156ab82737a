package mri

import (
	"testing"
)

func TestMultiEchoOrderOfMagnitude(t *testing.T) {
	std := StandardAcquisition()
	adv := ReferenceMultiEcho()
	if err := std.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := adv.Validate(); err != nil {
		t.Fatal(err)
	}
	ratio := adv.DataRateBps() / std.DataRateBps()
	// "an order of magnitude beyond what is feasible today":
	// 8 echoes x 4x matrix = 32x.
	if ratio < 10 {
		t.Errorf("advanced/standard data rate = %.1fx, paper claims an order of magnitude", ratio)
	}
}

func TestMultiEchoRates(t *testing.T) {
	std := StandardAcquisition()
	// 64*64*16 voxels * 4 B / 2 s = 131072 B/s ~ 1.05 Mbit/s.
	if got := std.DataRateBps(); got != 64*64*16*4*8/2 {
		t.Errorf("standard rate = %v", got)
	}
	if std.VoxelsPerVolume() != 65536 {
		t.Errorf("voxels = %d", std.VoxelsPerVolume())
	}
}

func TestMultiEchoValidate(t *testing.T) {
	bad := MultiEcho{Echoes: 0, NX: 64, NY: 64, NZ: 16, TR: 2}
	if err := bad.Validate(); err == nil {
		t.Error("zero echoes accepted")
	}
	bad = MultiEcho{Echoes: 1, NX: 64, NY: 64, NZ: 16, TR: 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero TR accepted")
	}
}
