package fire

import (
	"context"
	"errors"
	"net"
	"testing"

	"repro/internal/mri"
	"repro/internal/volume"
)

// measurement returns the scanner for a fresh synthetic measurement
// and the phantom it images.
func measurement(withMotion bool, nScans int) (*mri.Scanner, *mri.Phantom) {
	act := mri.Activation{CX: 8, CY: 8, CZ: 4, Radius: 2.5, Amplitude: 0.06, HRF: mri.DefaultHRF}
	ph := mri.NewPhantom(16, 16, 8, []mri.Activation{act})
	cfg := mri.ScanConfig{NX: 16, NY: 16, NZ: 8, TR: 2, NScans: nScans, NoiseStd: 1, Seed: 31}
	if withMotion {
		cfg.Motion = make([]mri.Shift, nScans)
		for i := nScans / 2; i < nScans; i++ {
			cfg.Motion[i] = mri.Shift{DX: 0.6, DY: -0.3}
		}
	}
	return mri.NewScanner(ph, cfg), ph
}

// startServer launches an RT-server for a fresh synthetic measurement
// and returns a connected client, the scanner and the phantom.
func startServer(t *testing.T, withMotion bool, nScans int) (*RTClient, *mri.Scanner, *mri.Phantom) {
	t.Helper()
	sc, ph := measurement(withMotion, nScans)
	srv := &RTServer{Scanner: sc}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.ListenAndServe(l)
	client, err := DialRT(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, sc, ph
}

func TestRealtimeSessionEndToEnd(t *testing.T) {
	client, sc, ph := startServer(t, false, 24)
	res, err := RunSession(context.Background(), client, sc.Reference(0), ph.Anatomy)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shifts) != 24 {
		t.Errorf("%d scans analysed, want 24", len(res.Shifts))
	}
	if r := res.Corr.At(8, 8, 4); r < 0.6 {
		t.Errorf("activation correlation %.3f", r)
	}
}

func TestRealtimeSessionWithMotionCorrection(t *testing.T) {
	client, sc, ph := startServer(t, true, 24)
	res, err := RunSession(context.Background(), client, sc.Reference(0), ph.Anatomy)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shifts) != 24 {
		t.Fatalf("%d scans analysed, want 24", len(res.Shifts))
	}
	// The injected subject motion (0.6, -0.3, 0) is recovered.
	if dx := res.Shifts[20][0]; dx-0.6 > 0.15 || dx-0.6 < -0.15 {
		t.Errorf("estimated dx = %.2f, want ~0.6", dx)
	}
	if res.Corr.At(8, 8, 4) < 0.6 {
		t.Errorf("correlation after motion correction = %.3f", res.Corr.At(8, 8, 4))
	}
}

func TestRealtimeSessionValidation(t *testing.T) {
	ctx := context.Background()
	client, sc, ph := startServer(t, false, 4)
	if _, err := RunSession(ctx, nil, sc.Reference(0), ph.Anatomy); err == nil {
		t.Error("session without client accepted")
	}
	if _, err := RunSession(ctx, client, nil, ph.Anatomy); err == nil {
		t.Error("session without reference accepted")
	}
	if _, err := RunSession(ctx, client, sc.Reference(0), nil); err == nil {
		t.Error("session without motion reference accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := RunSession(cancelled, client, sc.Reference(0), ph.Anatomy); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled session: err = %v, want context.Canceled", err)
	}
}

func TestRealtimeSessionShapeMismatch(t *testing.T) {
	client, sc, _ := startServer(t, false, 4)
	if _, err := RunSession(context.Background(), client, sc.Reference(0), volume.New(32, 32, 8)); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestRealtimeSessionFeedsVolume(t *testing.T) {
	// The session's map is the analysis chain run directly over the
	// same data: motion correction, then the correlator.
	client, sc, ph := startServer(t, false, 16)
	res, err := RunSession(context.Background(), client, sc.Reference(0), ph.Anatomy)
	if err != nil {
		t.Fatal(err)
	}
	sc2, _ := measurement(false, 16)
	c := NewCorrelator(sc2.Reference(0), 16, 16, 8)
	var fixed *volume.Volume
	for v := sc2.Next(); v != nil; v = sc2.Next() {
		if fixed, _, err = MotionCorrect(fixed, ph.Anatomy, v, MotionOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := c.Add(fixed); err != nil {
			t.Fatal(err)
		}
	}
	want, err := c.Map()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if res.Corr.Data[i] != want.Data[i] {
			t.Fatalf("session map differs from direct analysis at %d", i)
		}
	}
}
