package core

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/tcpsim"
)

func TestRegistryRegistration(t *testing.T) {
	if err := Register(nil); err == nil {
		t.Error("Register(nil) accepted")
	}
	if err := Register(NewScenario("", "empty", nil)); err == nil {
		t.Error("empty-name scenario accepted")
	}
	probe := NewScenario("test-registry-probe", "probe",
		func(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
			return &FutureWorkReport{}, nil
		})
	if err := Register(probe); err != nil {
		t.Fatalf("Register: %v", err)
	}
	// Duplicate names are rejected.
	if err := Register(NewScenario("test-registry-probe", "dup", nil)); err == nil {
		t.Error("duplicate name accepted")
	}
	s, ok := Lookup("test-registry-probe")
	if !ok || s.Description() != "probe" {
		t.Errorf("Lookup = %v, %v", s, ok)
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Error("Lookup resolved a ghost")
	}
	// Cleanup so listings in other tests see only real scenarios plus
	// whatever they register themselves.
	registry.Lock()
	delete(registry.m, "test-registry-probe")
	registry.Unlock()
}

func TestScenariosListing(t *testing.T) {
	all := Scenarios()
	if len(all) < 8 {
		t.Fatalf("only %d scenarios registered", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name() >= all[i].Name() {
			t.Errorf("listing not sorted: %q >= %q", all[i-1].Name(), all[i].Name())
		}
	}
	for _, want := range []string{
		"table1-model", "figure1-throughput", "figure2-endtoend", "figure3-overlay",
		"figure4-workbench", "section3-applications", "fmri-dataflow",
		"backbone-aggregate", "mixed-traffic", "future-work",
		"climate-coupled", "groundwater-coupled", "fsi-cocolib",
		"meg-music", "video-d1", "fire-rt-session",
	} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("scenario %q not registered", want)
		}
	}
}

func TestOptionsDefaultsAndApplication(t *testing.T) {
	def := NewOptions()
	if def.WAN != atm.OC48 || def.PEs != 256 || def.Frames != 30 || def.Flows != 2 {
		t.Errorf("defaults = %+v", def)
	}
	if def.Extensions || def.Workers != 0 {
		t.Errorf("unexpected non-zero defaults: %+v", def)
	}
	o := NewOptions(WithWAN(atm.OC12), WithExtensions(), WithPEs(64),
		WithFrames(5), WithFlows(3), WithWorkers(7))
	if o.WAN != atm.OC12 || !o.Extensions || o.PEs != 64 || o.Frames != 5 ||
		o.Flows != 3 || o.Workers != 7 {
		t.Errorf("options not applied: %+v", o)
	}
}

func TestRunUnknownScenario(t *testing.T) {
	if _, err := Run(context.Background(), "no-such-scenario"); err == nil {
		t.Error("unknown scenario ran")
	}
	if _, err := RunAll(context.Background(), []string{"table1-model", "no-such-scenario"}); err == nil {
		t.Error("RunAll with unknown name started")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"table1-model", "future-work"} {
		rep, err := Run(ctx, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Text() == "" {
			t.Errorf("%s: empty text", name)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatalf("%s: JSON: %v", name, err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if len(m) == 0 {
			t.Errorf("%s: empty JSON object", name)
		}
	}
	// Round-trip a concrete report through its own type.
	rep, err := Run(ctx, "table1-model")
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Table1Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	orig := rep.(*Table1Report)
	if len(back.Model) != len(orig.Model) || len(back.Paper) != len(orig.Paper) {
		t.Errorf("round trip lost rows: %d/%d vs %d/%d",
			len(back.Model), len(back.Paper), len(orig.Model), len(orig.Paper))
	}
	if back.Model[0] != orig.Model[0] {
		t.Errorf("round trip changed row: %+v vs %+v", back.Model[0], orig.Model[0])
	}
}

func TestRunAllOrderAndTiming(t *testing.T) {
	names := []string{"future-work", "table1-model"}
	results, err := RunAll(context.Background(), names, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if r.Name != names[i] {
			t.Errorf("result %d = %q, want %q (input order)", i, r.Name, names[i])
		}
		if r.Err != nil {
			t.Errorf("%s: %v", r.Name, r.Err)
		}
		if r.Report == nil {
			t.Errorf("%s: nil report", r.Name)
		}
		if r.Elapsed <= 0 {
			t.Errorf("%s: elapsed %v", r.Name, r.Elapsed)
		}
	}
}

func TestRunAllCancellationStopsInFlight(t *testing.T) {
	startedCh := make(chan struct{}, 4)
	block := NewScenario("test-block", "blocks until cancelled",
		func(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
			startedCh <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		})
	MustRegister(block)
	defer func() {
		registry.Lock()
		delete(registry.m, "test-block")
		registry.Unlock()
	}()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var results []RunResult
	var err error
	go func() {
		defer close(done)
		// Two workers, four queued copies: two run, two wait.
		results, err = RunAll(ctx, []string{"test-block", "test-block", "test-block", "test-block"},
			WithWorkers(2))
	}()
	// Wait until both workers are inside a scenario, then cancel.
	<-startedCh
	<-startedCh
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunAll did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunAll error = %v, want context.Canceled", err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("result %d: err = %v, want context.Canceled", i, r.Err)
		}
		if r.Report != nil {
			t.Errorf("result %d: report from a cancelled scenario", i)
		}
	}
}

func TestRunOnePanicContained(t *testing.T) {
	boom := NewScenario("test-panic", "panics",
		func(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
			panic("boom")
		})
	MustRegister(boom)
	defer func() {
		registry.Lock()
		delete(registry.m, "test-panic")
		registry.Unlock()
	}()
	results, err := RunAll(context.Background(), []string{"test-panic", "table1-model"})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panicked") {
		t.Errorf("panic not contained: %v", results[0].Err)
	}
	if results[1].Err != nil {
		t.Errorf("sibling scenario failed: %v", results[1].Err)
	}
}

// TestTestbedConcurrentAccess hammers one shared testbed from many
// goroutines — co-allocation, transfers, RTT and backbone counters —
// and relies on the race detector to flag unguarded state.
func TestTestbedConcurrentAccess(t *testing.T) {
	tb := New(Config{})
	var wg sync.WaitGroup
	sessions := []string{"fmri", "climate", "meg", "video"}
	hosts := [][]string{
		{HostT3E600, HostOnyx2},
		{HostSP2},
		{HostT90, HostWSJuelich},
		{HostWSGMD},
	}
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				if err := tb.Reserve(sessions[i], hosts[i]...); err == nil {
					_ = tb.Allocations()
					tb.Release(sessions[i])
				}
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := tb.TCPTransfer(HostWSJuelich, HostWSGMD, 4<<20, tcpsim.Config{}); err != nil {
				t.Error(err)
			}
			if _, err := tb.RTT(HostT3E600, HostSP2); err != nil {
				t.Error(err)
			}
			if _, err := tb.RTT(HostWSJuelich, HostWSGMD); err != nil {
				t.Error(err)
			}
			_ = tb.BackboneUtilization()
			_ = tb.BackboneWireBytes()
		}(i)
	}
	wg.Wait()
	if len(tb.Allocations()) != 0 {
		t.Errorf("leaked allocations: %v", tb.Allocations())
	}
}
