package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atm"
)

func TestSweepPointsGridOrder(t *testing.T) {
	sw := NewSweep("test-grid", "grid order probe",
		[]Axis{
			{Name: "a", Values: []any{"x", "y"}},
			{Name: "b", Values: []any{1, 2, 3}},
		}, nil, nil)
	pts := sw.Points()
	if len(pts) != 6 {
		t.Fatalf("%d points, want 6", len(pts))
	}
	// Row-major: the last axis varies fastest.
	want := [][2]any{{"x", 1}, {"x", 2}, {"x", 3}, {"y", 1}, {"y", 2}, {"y", 3}}
	for i, pt := range pts {
		if pt.Index != i {
			t.Errorf("point %d has Index %d", i, pt.Index)
		}
		if pt.Coord(0) != want[i][0] || pt.Coord(1) != want[i][1] {
			t.Errorf("point %d = (%v, %v), want (%v, %v)",
				i, pt.Coord(0), pt.Coord(1), want[i][0], want[i][1])
		}
	}
	if len(NewSweep("test-empty", "", nil, nil, nil).Points()) != 0 {
		t.Error("axis-less sweep should have an empty grid")
	}
}

// Shard results must reassemble in grid order even when completion
// order is reversed (early points slower than late ones).
func TestSweepMergesInGridOrderNotCompletionOrder(t *testing.T) {
	vals := make([]any, 8)
	for i := range vals {
		vals[i] = i
	}
	sw := NewSweep("test-order", "completion order shuffler",
		[]Axis{{Name: "i", Values: vals}},
		func(ctx context.Context, tb *Testbed, opts Options, pt Point) (any, error) {
			// Earlier points sleep longer, so with one point per shard
			// the last point finishes first.
			time.Sleep(time.Duration(len(vals)-pt.Index) * 2 * time.Millisecond)
			return pt.Coord(0).(int) * 10, nil
		},
		func(opts Options, results []any) (Report, error) {
			for i, r := range results {
				if r.(int) != i*10 {
					return nil, fmt.Errorf("result %d = %v, want %d (completion order leaked)", i, r, i*10)
				}
			}
			return &FutureWorkReport{}, nil
		})
	if _, err := sw.Run(context.Background(), nil, NewOptions(WithShards(8))); err != nil {
		t.Fatal(err)
	}
}

// The acceptance bar of the sharding refactor: sweeping scenarios
// produce byte-identical Text and JSON whatever the shard count.
func TestSweepReportsByteIdenticalAcrossShardCounts(t *testing.T) {
	for _, name := range []string{"figure1-throughput", "backbone-aggregate", "mixed-traffic", "fmri-pe-sweep"} {
		t.Run(name, func(t *testing.T) {
			sequential, err := Run(context.Background(), name, WithShards(1), WithFrames(10))
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := Run(context.Background(), name, WithShards(4), WithFrames(10))
			if err != nil {
				t.Fatal(err)
			}
			if sequential.Text() != sharded.Text() {
				t.Errorf("Text differs between 1 and 4 shards:\n--- sequential\n%s--- sharded\n%s",
					sequential.Text(), sharded.Text())
			}
			sj, err := sequential.JSON()
			if err != nil {
				t.Fatal(err)
			}
			hj, err := sharded.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sj, hj) {
				t.Errorf("JSON differs between 1 and 4 shards:\n%s\nvs\n%s", sj, hj)
			}
		})
	}
}

func TestSweepReportSurfacesShardTimings(t *testing.T) {
	rep, err := Run(context.Background(), "backbone-aggregate", WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := rep.(ShardedReport)
	if !ok {
		t.Fatalf("sweep report %T does not expose shard timings", rep)
	}
	timings := sr.ShardTimings()
	if len(timings) != 2 {
		t.Fatalf("%d shard timings, want 2", len(timings))
	}
	points := 0
	for i, st := range timings {
		if st.Shard != i {
			t.Errorf("timing %d labelled shard %d", i, st.Shard)
		}
		if st.ElapsedNS <= 0 {
			t.Errorf("shard %d elapsed %d ns", i, st.ElapsedNS)
		}
		points += st.Points
	}
	if points != 2 {
		t.Errorf("shards covered %d points, want 2", points)
	}
}

// A caller-built testbed passed positionally fixes the configuration of
// every shard testbed, even when sharding rebuilds them.
func TestSweepShardsInheritCallerTestbedConfig(t *testing.T) {
	var wans [2]atm.OC
	sw := NewSweep("test-cfg-sweep", "records each shard's backbone generation",
		[]Axis{{Name: "i", Values: []any{0, 1}}},
		func(ctx context.Context, tb *Testbed, opts Options, pt Point) (any, error) {
			wans[pt.Index] = tb.Cfg.WAN
			return nil, nil
		},
		func(opts Options, results []any) (Report, error) {
			return &FutureWorkReport{}, nil
		})
	tb := New(Config{WAN: atm.OC12})
	// Default opts carry OC-48; the OC-12 testbed must win on every shard.
	if _, err := sw.Run(context.Background(), tb, NewOptions(WithShards(2))); err != nil {
		t.Fatal(err)
	}
	for i, wan := range wans {
		if wan != atm.OC12 {
			t.Errorf("shard of point %d ran on %v, want the caller testbed's OC12", i, wan)
		}
	}
}

// A WithWorkers bound caps the default shard fan-out, so -workers keeps
// limiting total engine concurrency (an explicit WithShards may still
// exceed it).
func TestSweepDefaultShardsRespectWorkersBound(t *testing.T) {
	rep, err := Run(context.Background(), "backbone-aggregate", WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.(ShardedReport).ShardTimings()); n != 1 {
		t.Errorf("default sharding used %d shards under WithWorkers(1), want 1", n)
	}
	rep, err = Run(context.Background(), "backbone-aggregate", WithWorkers(1), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.(ShardedReport).ShardTimings()); n != 2 {
		t.Errorf("explicit WithShards(2) used %d shards, want 2", n)
	}
}

// registerBlockingSweep registers a sweep whose points park until the
// run context is cancelled, and returns a cleanup plus a counter of
// points that started.
func registerBlockingSweep(t *testing.T, name string, points int) *atomic.Int32 {
	t.Helper()
	vals := make([]any, points)
	for i := range vals {
		vals[i] = i
	}
	var started atomic.Int32
	MustRegister(NewSweep(name, "blocks until cancelled",
		[]Axis{{Name: "i", Values: vals}},
		func(ctx context.Context, tb *Testbed, opts Options, pt Point) (any, error) {
			started.Add(1)
			<-ctx.Done()
			return nil, ctx.Err()
		},
		func(opts Options, results []any) (Report, error) {
			return &FutureWorkReport{}, nil
		}))
	t.Cleanup(func() {
		registry.Lock()
		delete(registry.m, name)
		registry.Unlock()
	})
	return &started
}

// Cancelling mid-sweep must stop the shards, surface context.Canceled,
// and leave no shard goroutines behind.
func TestSweepCancellationNoLeakedGoroutines(t *testing.T) {
	started := registerBlockingSweep(t, "test-blocking-sweep", 8)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, "test-blocking-sweep", WithShards(4))
		done <- err
	}()
	// Wait until all four shards are inside a point, then cancel.
	for started.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run error = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep did not return after cancellation")
	}
	// Shards are joined before Run returns; give the runtime a moment
	// to retire them, then check nothing leaked.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+1 {
		t.Errorf("goroutines %d -> %d after cancelled sweep; shards leaked", before, got)
	}
}

func TestSweepPointPanicContained(t *testing.T) {
	MustRegister(NewSweep("test-panic-sweep", "panics at point 1",
		[]Axis{{Name: "i", Values: []any{0, 1, 2}}},
		func(ctx context.Context, tb *Testbed, opts Options, pt Point) (any, error) {
			if pt.Index == 1 {
				panic("sweep point boom")
			}
			return pt.Index, nil
		},
		func(opts Options, results []any) (Report, error) {
			return &FutureWorkReport{}, nil
		}))
	defer func() {
		registry.Lock()
		delete(registry.m, "test-panic-sweep")
		registry.Unlock()
	}()
	_, err := Run(context.Background(), "test-panic-sweep", WithShards(3))
	if err == nil || !strings.Contains(err.Error(), "point 1") || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panicking point not reported: %v", err)
	}
	// A sibling scenario in the same RunAll keeps working.
	results, err := RunAll(context.Background(), []string{"test-panic-sweep", "table1-model"})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Error("panicking sweep reported no error through RunAll")
	}
	if results[1].Err != nil {
		t.Errorf("sibling scenario failed: %v", results[1].Err)
	}
}

// Cancelling a RunAll that includes sharded sweeps must cancel the
// sweeps' in-flight shards and leave no goroutines behind (the RunAll
// side of the mid-sweep cancellation guarantee).
func TestRunAllCancellationMidSweepNoLeaks(t *testing.T) {
	started := registerBlockingSweep(t, "test-blocking-sweep-all", 4)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var results []RunResult
	var err error
	go func() {
		defer close(done)
		results, err = RunAll(ctx, []string{"test-blocking-sweep-all", "table1-model"},
			WithWorkers(2), WithShards(2))
	}()
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunAll did not return after mid-sweep cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunAll error = %v, want context.Canceled", err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Errorf("sweep result err = %v, want context.Canceled", results[0].Err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+1 {
		t.Errorf("goroutines %d -> %d after cancelled RunAll; sweep shards leaked", before, got)
	}
}

// PointKey is a persistence contract: the coordinator's point store
// survives restarts, so the key one process computes must match what a
// later process — same build or not — computes for the same point.
// These golden hashes pin the format; if this test fails, the key
// format changed and every persisted point store is silently orphaned
// (bump with care, and say so in the changelog).
func TestPointKeyStableAcrossProcesses(t *testing.T) {
	sw := NewSweep("keystability", "", []Axis{
		{Name: "mtu", Values: []any{1500, 9180}},
		{Name: "load", Values: []any{0.25, 0.9}},
	}, nil, nil)
	opts := Options{PEs: 4, Frames: 7}
	golden := []string{
		"eb913bee657cc5451c09cff0b9396bcbf7de57e3ca015c3afce6095b9b2c876c",
		"303ec8db45e9ab4e59100ae5eb8ea163f0350c5d7fefbf3a0347a4de8e49cad9",
		"6141611b174ca5d2cb47ed931fc36918b8002c451c4c4aeb4a7daaaca4573347",
		"11554bdd478f7bb7dbc343b647f73e8e4de6b91329616ffb8c678b39ea883615",
	}
	for i, pt := range sw.Points() {
		if got := sw.PointKey(opts, pt); got != golden[i] {
			t.Errorf("PointKey(point %d) = %s, want %s — the format is a persistence contract",
				i, got, golden[i])
		}
	}
	// Narrowed deps: fields outside the declaration must not move the
	// key (that invariance is what makes restart reuse broad), and the
	// narrowed key is itself pinned.
	sw2 := NewSweep("keystability-deps", "", []Axis{{Name: "i", Values: []any{1}}}, nil, nil).
		PointDeps(OptFrames)
	const goldenDeps = "981333c9fb2e5ef8bd03fd7b90818d666585b9b54c332c3775df79239f00930f"
	k1 := sw2.PointKey(Options{PEs: 99, Frames: 7}, sw2.Points()[0])
	k2 := sw2.PointKey(Options{PEs: 4, Frames: 7}, sw2.Points()[0])
	if k1 != k2 {
		t.Errorf("an undeclared option moved the key: %s vs %s", k1, k2)
	}
	if k1 != goldenDeps {
		t.Errorf("narrowed PointKey = %s, want %s", k1, goldenDeps)
	}
}

// The OnPoint observer sees every freshly computed point exactly once —
// from local shards, remote deliveries and streamed points alike — and
// never sees prefills.
func TestSweepRunOnPointObserver(t *testing.T) {
	sw := NewSweep("onpoint-sweep", "", []Axis{{Name: "i", Values: []any{0, 1, 2, 3, 4, 5}}},
		func(ctx context.Context, tb *Testbed, opts Options, pt Point) (any, error) {
			return pt.Index * 10, nil
		}, func(opts Options, results []any) (Report, error) {
			return nil, nil
		}).NoShardTestbed()
	d := NewWorkStealingDispatcher(6, 1)
	run := NewSweepRun(sw, Options{}, d, 1)
	var mu sync.Mutex
	seen := map[int]int{}
	run.OnPoint = func(i int, val any) {
		mu.Lock()
		defer mu.Unlock()
		seen[i]++
		if want := i * 10; val != want {
			// Remote points carry the strings delivered below.
			if val != "streamed" && val != "completed" {
				t.Errorf("OnPoint(%d) = %v, want %d or a delivered value", i, val, want)
			}
		}
	}
	// Point 0 comes from the observer's own store: prefilled by the
	// queue's skip predicate, never leased.
	d.SetSkip(func(lo, hi int) []bool {
		mask := make([]bool, hi-lo)
		if lo == 0 {
			run.Prefill(0, 0)
			mask[0] = true
		}
		return mask
	})
	// Points 3 and 5 arrive remotely: 3 streamed mid-lease, 5 via a
	// completed lease; the rest run on the local shard.
	l, ok := d.TryNext("remote")
	if !ok {
		t.Fatal("no lease for the remote worker")
	}
	if l.Lo != 1 {
		t.Fatalf("first lease starts at %d, want 1 (0 is prefilled)", l.Lo)
	}
	for i := l.Lo; i < l.Hi; i++ {
		run.DeliverPoint(l, i, "streamed", "")
	}
	// A batch resent after a lost acknowledgement repeats a point: not fresh.
	run.DeliverPoint(l, l.Lo, "completed", "")
	if !run.Complete(l, time.Millisecond, time.Millisecond) || run.Complete(l, time.Millisecond, time.Millisecond) {
		t.Fatal("Complete must report true for the outstanding lease, false for a repeat")
	}
	run.RunShard(context.Background(), 0, "local", nil)
	if err := run.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen[0] != 0 {
		t.Errorf("observer saw prefilled point 0 (%d times)", seen[0])
	}
	for i := l.Lo; i < l.Hi; i++ {
		if seen[i] != 1 { // when first delivered; the resent one is not fresh
			t.Errorf("remote point %d observed %d times, want 1 (its first delivery, not the resend)", i, seen[i])
		}
	}
	for i := int(l.Hi); i < 6; i++ {
		if seen[i] != 1 {
			t.Errorf("local point %d observed %d times, want 1", i, seen[i])
		}
	}
}
