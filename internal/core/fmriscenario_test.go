package core

import (
	"runtime"
	"testing"
	"time"
)

func TestFMRIScenarioMeetsPaperBudget(t *testing.T) {
	res, err := RunFMRIScenario(Config{}, FMRIScenario{PEs: 256, TR: 3.0, Frames: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames == 0 {
		t.Fatal("no frames displayed")
	}
	// The derived end-to-end GUI delay must land under the paper's
	// 5 s bound (and above the bare compute+scan floor).
	if res.MaxGUIDelay >= 5.0 {
		t.Errorf("max GUI delay %.2f s, paper promises < 5", res.MaxGUIDelay)
	}
	if res.MeanGUIDelay < 2.0 {
		t.Errorf("mean GUI delay %.2f s implausibly small", res.MeanGUIDelay)
	}
	// The VR path adds the Onyx round trip on top of the GUI delay.
	if res.MeanVRDelay <= res.MeanGUIDelay {
		t.Error("VR delay should exceed GUI delay")
	}
	// Wire time is a small share: the budget is dominated by scanner
	// availability, control handling, compute and display — the
	// paper's observation that bytes were not the problem.
	if res.WireSeconds > 0.5 {
		t.Errorf("wire seconds %.3f per frame, should be well under the 1.1 s budget", res.WireSeconds)
	}
}

func TestFMRIScenarioFewerPEsSlower(t *testing.T) {
	fast, err := RunFMRIScenario(Config{}, FMRIScenario{PEs: 256, TR: 3.0, Frames: 8})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunFMRIScenario(Config{}, FMRIScenario{PEs: 16, TR: 8.0, Frames: 8})
	if err != nil {
		t.Fatal(err)
	}
	if slow.MeanGUIDelay <= fast.MeanGUIDelay {
		t.Errorf("16-PE delay %.2f s should exceed 256-PE %.2f s",
			slow.MeanGUIDelay, fast.MeanGUIDelay)
	}
	if slow.ComputeSeconds <= fast.ComputeSeconds {
		t.Error("compute time should grow as PEs shrink")
	}
}

func TestFMRIScenarioFastTRSkipsFrames(t *testing.T) {
	// At TR=2 the unpipelined chain (~2.7 s + transfers) cannot keep
	// up: the realtime system skips to the newest scan.
	res, err := RunFMRIScenario(Config{}, FMRIScenario{PEs: 256, TR: 2.0, Frames: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames >= 16 {
		t.Errorf("displayed %d/16 frames at TR=2; expected skips", res.Frames)
	}
	// A chain that skipped frames has fewer to wait for than it was
	// started with, and must end with the scanner's last one instead of
	// waiting for the rest: every run would strand a goroutine and,
	// through its stack, the run's whole testbed.
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := RunFMRIScenario(Config{}, FMRIScenario{PEs: 256, TR: 2.0, Frames: 16}); err != nil {
			t.Fatal(err)
		}
	}
	// Goroutines that have returned take a moment to leave the count.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 20 frame-skipping runs, %d before: the chain process leaks", runtime.NumGoroutine(), base)
		}
	}
}

func TestFMRIScenarioValidation(t *testing.T) {
	if _, err := RunFMRIScenario(Config{}, FMRIScenario{}); err == nil {
		t.Error("zero scenario accepted")
	}
	// A matrix is all zero (the default) or all positive. A zero axis
	// used to divide by zero in the T3E cost model, and a negative one
	// sent empty trains the chain waited for forever, stranding its
	// goroutine and testbed.
	base := runtime.NumGoroutine()
	for _, m := range [][3]int{{64, 0, 16}, {-64, 64, 16}, {0, 64, 16}, {64, 64, -1}} {
		sc := FMRIScenario{PEs: 256, TR: 4, Frames: 4, NX: m[0], NY: m[1], NZ: m[2]}
		if _, err := RunFMRIScenario(Config{}, sc); err == nil {
			t.Errorf("%dx%dx%d matrix accepted", m[0], m[1], m[2])
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the rejected matrices, %d before", runtime.NumGoroutine(), base)
		}
	}
}
