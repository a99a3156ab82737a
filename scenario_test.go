package gtw

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// The acceptance bar for the scenario API: the registry exposes every
// experiment uniformly, and RunAll executes them concurrently.

func TestScenarioRegistryFacade(t *testing.T) {
	all := Scenarios()
	if len(all) < 8 {
		t.Fatalf("only %d scenarios registered, want >= 8", len(all))
	}
	for _, want := range []string{
		"figure1-throughput", "figure2-endtoend", "figure3-overlay",
		"figure4-workbench", "section3-applications", "fmri-dataflow",
		"backbone-aggregate", "mixed-traffic", "future-work",
	} {
		s, ok := Lookup(want)
		if !ok {
			t.Errorf("scenario %q not registered", want)
			continue
		}
		if s.Description() == "" {
			t.Errorf("scenario %q has no description", want)
		}
	}
}

func TestScenarioRunFacade(t *testing.T) {
	rep, err := Run(context.Background(), "figure2-endtoend", WithPEs(256), WithFrames(10))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text(), "total delay") {
		t.Errorf("unexpected text:\n%s", rep.Text())
	}
	f2, ok := rep.(*Figure2Report)
	if !ok {
		t.Fatalf("report type %T", rep)
	}
	if f2.TotalDelay >= 5 {
		t.Errorf("total delay %.2f s, paper promises < 5", f2.TotalDelay)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["TotalDelay"]; !ok {
		t.Errorf("JSON missing TotalDelay: %s", b)
	}
}

// The sweep facade: a caller-defined sweep built through the public API
// shards, merges in grid order and surfaces shard timings, without
// registry involvement.
func TestSweepFacade(t *testing.T) {
	sw := NewSweep("facade-sweep", "doubles its grid values",
		[]Axis{{Name: "v", Values: []any{1, 2, 3}}},
		func(ctx context.Context, tb *Testbed, opts Options, pt Point) (any, error) {
			return pt.Coord(0).(int) * 2, nil
		},
		func(opts Options, results []any) (Report, error) {
			for i, r := range results {
				if want := (i + 1) * 2; r.(int) != want {
					t.Errorf("result %d = %v, want %d", i, r, want)
				}
			}
			return &FutureWorkReport{}, nil
		})
	if sw.Name() != "facade-sweep" || len(sw.Points()) != 3 {
		t.Fatalf("sweep metadata broken: %q, %d points", sw.Name(), len(sw.Points()))
	}
	rep, err := sw.Run(context.Background(), nil, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := rep.(ShardedReport)
	if !ok {
		t.Fatalf("sweep report %T does not implement ShardedReport", rep)
	}
	points := 0
	for _, st := range sr.ShardTimings() {
		points += st.Points
	}
	if points != 3 {
		t.Errorf("shards covered %d points, want 3", points)
	}
}

// TestRunAllEveryScenarioConcurrently runs the full registry through
// the engine at reduced sizes — under -race this is the proof that the
// engine and every registered scenario are concurrency-clean.
func TestRunAllEveryScenarioConcurrently(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run")
	}
	results, err := RunAll(context.Background(), nil,
		WithPEs(64), WithFrames(8), WithFlows(2), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 8 {
		t.Fatalf("engine ran %d scenarios", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s failed after %v: %v", r.Name, r.Elapsed, r.Err)
			continue
		}
		if r.Report == nil || r.Report.Text() == "" {
			t.Errorf("%s produced no report text", r.Name)
		}
		if _, err := r.Report.JSON(); err != nil {
			t.Errorf("%s JSON: %v", r.Name, err)
		}
	}
}
