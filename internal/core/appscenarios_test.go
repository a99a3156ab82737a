package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/cocolib"
)

// render runs a scenario and returns its report bytes, text then JSON.
func render(t *testing.T, name string, opts ...Option) []byte {
	t.Helper()
	rep, err := Run(context.Background(), name, opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatalf("%s: JSON: %v", name, err)
	}
	return append([]byte(rep.Text()), js...)
}

// TestEveryWANCrossingReportFeelsTheWAN is the one-model bar: every
// scenario whose traffic crosses the backbone reports something else on
// the OC-12 than on the OC-48, and the ones that run on the
// metacomputing MPI or a private DES — no host timing anywhere — repeat
// byte for byte, groundwater-coupled's whole trace summary included.
func TestEveryWANCrossingReportFeelsTheWAN(t *testing.T) {
	for _, sc := range []struct {
		name       string
		repeatable bool
	}{
		{"climate-coupled", true},
		{"groundwater-coupled", true},
		{"fsi-cocolib", true},
		{"meg-music", true},
		{"fmri-dataflow", true},
		{"figure1-throughput", false},
		{"section3-applications", false},
	} {
		oc48 := render(t, sc.name, WithFrames(4))
		if oc12 := render(t, sc.name, WithFrames(4), WithWAN(atm.OC12)); bytes.Equal(oc12, oc48) {
			t.Errorf("%s reports the same on OC-12 as on OC-48:\n%s", sc.name, oc48)
		}
		if sc.repeatable {
			if again := render(t, sc.name, WithFrames(4)); !bytes.Equal(again, oc48) {
				t.Errorf("%s differs between two runs:\n%s\n---\n%s", sc.name, oc48, again)
			}
		}
	}
}

// TestOnlyTheClockChanged pins, with exact float equality, the numbers
// the coupled applications printed while their MPI still slept on the
// wall clock: moving the ranks onto the simulation kernel and their
// messages onto the testbed may change when things happen, never what
// is computed. (The values are amd64's; Go may fuse multiply-adds on
// other architectures.)
func TestOnlyTheClockChanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned floats were recorded on amd64")
	}
	run := func(name string) Report {
		rep, err := Run(context.Background(), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return rep
	}
	fsi := run("fsi-cocolib").(*FSIReport).Result
	fsi.NetworkSeconds = 0
	if want := (cocolib.FSIResult{Steps: 2500, BytesExchanged: 2120000,
		MaxDeflection: 0.1763480273030892, TipResidual: 3.531556325656049e-05}); fsi != want {
		t.Errorf("fsi-cocolib = %+v, want %+v", fsi, want)
	}
	cl := run("climate-coupled").(*ClimateReport).Result
	if cl.FinalMeanSST != 290.28583997760416 || cl.FinalIceFraction != 0.0002987731972880711 ||
		cl.MinSST != 271.1221344460882 || cl.MaxSST != 299.8619183841659 || cl.BytesPerExchange != 180224 {
		t.Errorf("climate-coupled = %+v", cl)
	}
	gw := run("groundwater-coupled").(*GroundwaterReport).Result
	if gw.Exited != 332 || gw.FinalMeanX != 35.66505692603812 || gw.CGIterTotal != 1796 || gw.TotalBytes != 552960 {
		t.Errorf("groundwater-coupled = %+v", gw)
	}
	meg := run("meg-music").(*MEGReport)
	if meg.BestMM != [3]float64{20.000000000000004, -9.999999999999996, 40} || meg.PeakVal != 0.9800875556554733 {
		t.Errorf("meg-music = %+v", meg)
	}
}

// TestFSIOnTestbedCrossesTheBackbone: the cost of an MPI message
// between sites is produced by packets on the testbed's own links, the
// backbone among them, so the backbone's generation changes it.
func TestFSIOnTestbedCrossesTheBackbone(t *testing.T) {
	var took [2]float64
	for i, wan := range []atm.OC{atm.OC12, atm.OC48} {
		tb := New(Config{WAN: wan})
		res, err := cocolib.RunFSI(tb.Net, [2]string{HostSP2, HostT3E1200}, 65, 41, 100, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		if res.NetworkSeconds <= 0 {
			t.Errorf("%v: network time = %v s", wan, res.NetworkSeconds)
		}
		took[i] = res.NetworkSeconds
	}
	t.Logf("network time OC-12 %v s, OC-48 %v s", took[0], took[1])
	if took[0] == took[1] {
		t.Errorf("network time %v s on both backbones: the run does not cross the backbone", took[0])
	}
}

// TestFSIPrivateTestbedLeaksNoGoroutine: every rank and every helper of
// a nonblocking send is a kernel process with a goroutine under it;
// all of them must be gone when the scenario returns, and its private
// testbed with them.
func TestFSIPrivateTestbedLeaksNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := Run(context.Background(), "fsi-cocolib"); err != nil {
			t.Fatal(err)
		}
	}
	// A finished process's goroutine exits just after it hands the CPU
	// back, so give the last few a moment.
	for wait := time.Millisecond; runtime.NumGoroutine() > before; wait *= 2 {
		if wait > time.Second {
			t.Fatalf("%d goroutines before 20 fsi-cocolib runs, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(wait)
	}
}

// TestRTSessionMotionFitsConverge pins the default session's motion
// fits. Each fit starts from the previous scan's estimate, so the moved
// half of the session — the 15 scans after the subject moves by
// (0.8, -0.4, 0) voxels at scan 15 — takes one long fit and then about
// one iteration a scan: 23 iterations, against 110 when every fit
// started from zero. No fit stops at its iteration cap.
func TestRTSessionMotionFitsConverge(t *testing.T) {
	rep, err := Run(context.Background(), "fire-rt-session")
	if err != nil {
		t.Fatal(err)
	}
	r := rep.(*RTSessionReport)
	if len(r.FitIterations) != r.Scans || r.Scans != 30 {
		t.Fatalf("%d iteration counts for %d scans, want 30", len(r.FitIterations), r.Scans)
	}
	total, moved := 0, 0
	for scan, n := range r.FitIterations {
		total += n
		if scan >= r.Scans/2 {
			moved += n
		}
	}
	if total != 40 || moved != 23 || r.FitsAtMaxIter != 0 {
		t.Errorf("fits took %d iterations, %d of them after the subject moved, %d stopped at the cap; want 40, 23 and 0",
			total, moved, r.FitsAtMaxIter)
	}
}
