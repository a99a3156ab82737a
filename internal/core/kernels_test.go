package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/tcpsim"
)

// TestScenarioKernelsByteIdentity pins the PDES invariant at the
// scenario level: for every converted scenario the report — text and
// JSON — is byte-identical whether the testbed network runs on one
// kernel or is partitioned across 2 or 4 (WithKernels is execution
// policy, exactly like WithShards).
func TestScenarioKernelsByteIdentity(t *testing.T) {
	scenarios := []string{"backbone-aggregate", "mixed-traffic", "figure1-throughput"}
	for _, name := range scenarios {
		name := name
		t.Run(name, func(t *testing.T) {
			type snapshot struct {
				text string
				json []byte
			}
			run := func(kernels int) snapshot {
				rep, err := Run(context.Background(), name, WithKernels(kernels))
				if err != nil {
					t.Fatalf("kernels=%d: %v", kernels, err)
				}
				js, err := rep.JSON()
				if err != nil {
					t.Fatalf("kernels=%d: JSON: %v", kernels, err)
				}
				return snapshot{text: rep.Text(), json: js}
			}
			want := run(1)
			check := func(label string, kernels int, got snapshot) {
				t.Helper()
				if got.text != want.text {
					t.Errorf("%s kernels=%d: text differs:\n--- 1 kernel ---\n%s--- %d kernels ---\n%s",
						label, kernels, want.text, kernels, got.text)
				}
				if !bytes.Equal(got.json, want.json) {
					t.Errorf("%s kernels=%d: JSON differs:\n%s\nvs\n%s", label, kernels, want.json, got.json)
				}
			}
			for _, kernels := range []int{2, 4} {
				check("wan-cut", kernels, run(kernels))
			}
		})
	}
}

// TestTestbedKernelsPartitionsNetwork checks Config.Kernels actually
// partitions (the standard topology has two WAN-separated sites, so the
// effective count is 2) and that the shared-testbed facade still works
// on a partitioned network.
func TestTestbedKernelsPartitionsNetwork(t *testing.T) {
	tb := New(Config{Kernels: 4})
	if got := tb.Net.Kernels(); got != 2 {
		t.Fatalf("standard topology split into %d kernels, want 2 (one WAN link)", got)
	}
	single := New(Config{})
	if got := single.Net.Kernels(); got != 1 {
		t.Fatalf("default testbed has %d kernels, want 1", got)
	}

	res, err := tb.TCPTransfer(HostWSJuelich, HostWSGMD, 1<<20, tcpsim.Config{WindowBytes: 4 << 20})
	if err != nil {
		t.Fatalf("TCPTransfer on partitioned testbed: %v", err)
	}
	ref, err := single.TCPTransfer(HostWSJuelich, HostWSGMD, 1<<20, tcpsim.Config{WindowBytes: 4 << 20})
	if err != nil {
		t.Fatalf("TCPTransfer on single-kernel testbed: %v", err)
	}
	if res != ref {
		t.Fatalf("partitioned transfer %+v != single-kernel %+v", res, ref)
	}

	rtt1, err := single.RTT(HostT3E600, HostSP2)
	if err != nil {
		t.Fatal(err)
	}
	rtt2, err := tb.RTT(HostT3E600, HostSP2)
	if err != nil {
		t.Fatal(err)
	}
	if rtt1 != rtt2 {
		t.Fatalf("RTT %v on partitioned testbed, %v on single", rtt2, rtt1)
	}
}

// TestPartitionedTestbedsReleaseGoroutines pins the lifetime of the
// PDES workers: a partitioned testbed is built per grid point, so a
// worker goroutine that outlived its Run would strand one goroutine —
// and through its stack the whole network — per point. After any number
// of partitioned runs the goroutine count must be back where a serial
// run leaves it.
func TestPartitionedTestbedsReleaseGoroutines(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, "mixed-traffic", WithShards(1)); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		for _, name := range []string{"mixed-traffic", "backbone-aggregate"} {
			if _, err := Run(ctx, name, WithKernels(2), WithShards(1)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	// Goroutines that have returned take a moment to leave the count.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		got := runtime.NumGoroutine()
		if got <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 20 partitioned runs, %d before: partitioned testbeds leak their workers", got, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
