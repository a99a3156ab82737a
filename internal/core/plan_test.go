package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// planProbeReport is a concrete report for the wrapped-scenario tests.
type planProbeReport struct {
	Value float64 `json:"value"`
	Label string  `json:"label"`
}

func (r *planProbeReport) Text() string          { return fmt.Sprintf("value %.3f (%s)\n", r.Value, r.Label) }
func (r *planProbeReport) JSON() ([]byte, error) { return json.Marshal(r) }

// A non-sweep scenario resolves to a one-point plan whose wire
// round-trip preserves the report byte for byte — the invariant that
// lets one-shot applications execute on remote workers.
func TestPlanForWrapsNonSweepScenario(t *testing.T) {
	s := NewScenario("plan-test-wrap", "wrap probe",
		func(ctx context.Context, tb *Testbed, opts Options) (Report, error) {
			return &planProbeReport{Value: 0.125 + float64(opts.Frames), Label: "wrapped"}, nil
		})
	p := PlanFor(s)
	if !p.wrapped {
		t.Fatal("non-sweep scenario did not wrap")
	}
	if !p.Distributable() {
		t.Fatal("wrapped plan must be distributable (report wire codec)")
	}
	sw := p.Sweep()
	pts := sw.Points()
	if len(pts) != 1 {
		t.Fatalf("wrapped plan has %d points, want 1", len(pts))
	}
	opts := NewOptions(WithFrames(7))
	val, err := sw.EvalPoint(context.Background(), nil, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := val.(Report)
	if !ok {
		t.Fatalf("point value is %T, want a Report", val)
	}
	wantJSON, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the wire codec, as a remote execution would.
	b, err := sw.EncodePoint(val)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := sw.DecodePoint(b)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := func() (Report, error) {
		run := NewSweepRun(sw, opts, NewWorkStealingDispatcher(1, 1), 0)
		run.Prefill(0, decoded)
		return run.Report(context.Background())
	}()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := merged.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("wire round-trip changed report bytes:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
	if merged.Text() != rep.Text() {
		t.Errorf("wire round-trip changed report text")
	}
}

// PlanFor of a sweep is the sweep itself; Plan.Run matches the
// engine's direct execution byte for byte.
func TestPlanForSweepIsIdentity(t *testing.T) {
	sw := NewSweep("plan-test-sweep", "identity probe",
		[]Axis{{Name: "i", Values: []any{1, 2, 3}}},
		func(ctx context.Context, tb *Testbed, opts Options, pt Point) (any, error) {
			return Figure1Row{Path: fmt.Sprintf("p%d", pt.Coord(0).(int)), Mbps: float64(pt.Index) + 0.5}, nil
		},
		func(opts Options, results []any) (Report, error) {
			rep := &Figure1Report{}
			for _, r := range results {
				rep.Rows = append(rep.Rows, r.(Figure1Row))
			}
			return rep, nil
		}).NoShardTestbed().WirePoint(Figure1Row{})
	p := PlanFor(sw)
	if p.wrapped || p.Sweep() != sw {
		t.Fatal("sweep plan must be the sweep itself")
	}
	opts := NewOptions()
	direct, err := sw.Run(context.Background(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	viaPlan, err := p.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	dj, _ := direct.JSON()
	pj, _ := viaPlan.JSON()
	if !bytes.Equal(dj, pj) {
		t.Errorf("plan run differs from direct sweep run:\n%s\nvs\n%s", pj, dj)
	}
}

// Point keys: stable per point, distinct across points and scenarios,
// and narrowed by PointDeps so irrelevant options share keys.
func TestPointKeyContentAddressing(t *testing.T) {
	mk := func(name string, deps ...OptField) *Sweep {
		sw := NewSweep(name, "key probe",
			[]Axis{{Name: "i", Values: []any{10, 20}}},
			func(ctx context.Context, tb *Testbed, opts Options, pt Point) (any, error) { return nil, nil },
			func(opts Options, results []any) (Report, error) { return nil, nil })
		if deps != nil {
			sw.PointDeps(deps...)
		}
		return sw
	}
	a := mk("key-a")
	aDeps := mk("key-a", OptFlows) // same name, points read Flows only
	b := mk("key-b")
	o1 := NewOptions(WithFrames(30), WithFlows(2))
	o2 := NewOptions(WithFrames(60), WithFlows(2)) // frames differ
	o3 := NewOptions(WithFrames(30), WithFlows(4)) // flows differ
	pts := a.Points()

	if a.PointKey(o1, pts[0]) != a.PointKey(o1, pts[0]) {
		t.Error("point key is not deterministic")
	}
	if a.PointKey(o1, pts[0]) == a.PointKey(o1, pts[1]) {
		t.Error("different grid points share a key")
	}
	if a.PointKey(o1, pts[0]) == b.PointKey(o1, b.Points()[0]) {
		t.Error("different scenarios share a key")
	}
	// Default deps: every option field is assumed relevant.
	if a.PointKey(o1, pts[0]) == a.PointKey(o2, pts[0]) {
		t.Error("default deps ignored a Frames change")
	}
	// Declared deps: Frames is irrelevant, Flows is not.
	if aDeps.PointKey(o1, pts[0]) != aDeps.PointKey(o2, pts[0]) {
		t.Error("PointDeps(OptFlows) still keys on Frames")
	}
	if aDeps.PointKey(o1, pts[0]) == aDeps.PointKey(o3, pts[0]) {
		t.Error("PointDeps(OptFlows) ignored a Flows change")
	}
	// Empty deps: options never matter.
	none := mk("key-none", []OptField{}...)
	none.PointDeps()
	if none.PointKey(o1, none.Points()[0]) != none.PointKey(o3, none.Points()[0]) {
		t.Error("PointDeps() still keys on options")
	}
}

// RequeuePartial credits the streamed prefix and re-leases only the
// unfinished tail — the dead-worker-late-in-a-lease path.
func TestRequeuePartialReLeasesOnlyUnfinishedTail(t *testing.T) {
	d := NewWorkStealingDispatcher(8, 1)
	l, ok := d.TryNext("victim")
	if !ok {
		t.Fatal("no lease")
	}
	if l.Points() < 3 {
		t.Fatalf("first lease too small for the test: [%d,%d)", l.Lo, l.Hi)
	}
	finished := make([]bool, l.Points())
	finished[0], finished[1] = true, true // streamed before death
	d.RequeuePartial(l, finished)

	seen := make(map[int]int)
	for {
		nl, ok := d.TryNext("rescuer")
		if !ok {
			break
		}
		for i := nl.Lo; i < nl.Hi; i++ {
			seen[i]++
		}
		d.Complete(nl, time.Millisecond)
	}
	if seen[l.Lo] != 0 || seen[l.Lo+1] != 0 {
		t.Errorf("streamed points re-leased: %v", seen)
	}
	for i := l.Lo + 2; i < 8; i++ {
		if seen[i] != 1 {
			t.Errorf("point %d leased %d times, want 1", i, seen[i])
		}
	}
	select {
	case <-d.Done():
	default:
		t.Error("dispatcher not done after tail re-ran")
	}
}
