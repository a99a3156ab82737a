package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The set-up children of a timed run re-execute the running binary,
// which under `go test` is the test binary: with childEnv set it acts
// as the benchmark instead of running tests.
const childEnv = "BENCH_TEST_ACT_AS_BENCH"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// BENCHMARK.json and the tables in workload.go and metrics.go say the
// same thing, in the same order, within the contract's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	bj := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(name, unit, better string) {
		t.Helper()
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", name, better)
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bj.Paths, bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %d: declared %+v, implemented %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEndDefs) || len(bj.PerLayer) != len(perLayerDefs) {
		t.Fatalf("declared %d end-to-end and %d per-layer metrics, defined %d and %d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	setup := false
	for i, d := range endToEndDefs {
		m := bj.EndToEnd[i]
		check(d.name, d.unit, d.better)
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end %d: declared %+v, defined %+v", i, m, d)
		}
		setup = setup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for i, d := range perLayerDefs {
		m := bj.PerLayer[i]
		check(d.name, d.unit, d.better)
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: declared %+v, defined %+v", i, m, d)
		}
	}
	for _, l := range layers {
		if !seen["self."+l+"_share"] {
			t.Errorf("layer %q has no self-time metric", l)
		}
	}
	for _, p := range probes {
		if !seen[p.name] {
			t.Errorf("probe %q is not a declared metric", p.name)
		}
	}
}

// Every workload, timed and traced, at smoke-test scale: nothing
// fails, the result line carries exactly the declared metrics with
// their units, and the trace loads and adds up.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	t.Setenv(childEnv, "1")
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w.name, "-seconds", "0.4", "-trace", trace, "-quick", "-out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s%s", w.name, trace, code, stdout.String(), stderr.String())
			}
			rd, err := parseRun(stdout.Bytes())
			if err != nil {
				t.Fatalf("%s trace %s: %v\n%s", w.name, trace, err, stdout.String())
			}
			if rd.NUnits < 1 || rd.Failed != 0 || rd.FailShare != 0 || rd.Points < 1 {
				t.Errorf("%s trace %s: %d units, %d failed, %d points: %v", w.name, trace, rd.NUnits, rd.Failed, rd.Points, rd.Errors)
			}
			defs := endToEndDefs
			if trace == "1" {
				defs = perLayerDefs
			}
			if len(rd.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics on the result line, want %d", w.name, trace, len(rd.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rd.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace %s: metric %s = %+v (present %v), want a number in %s", w.name, trace, d.name, m, ok, d.unit)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, m.Value)
				}
			}
			if trace == "0" {
				continue
			}
			if sum := rd.Metrics["trace.self_sum_share"].Value; math.Abs(sum-1) > 0.05 {
				t.Errorf("%s: per-layer self times sum to %.3f of the traced window", w.name, sum)
			}
			hit := rd.Metrics["dist.store_hit_share"].Value
			if (w.name == "dist-cold" && hit != 0) || (w.name == "dist-hit" && hit < 0.99) {
				t.Errorf("%s: store hit share %.3f", w.name, hit)
			}
			var tr struct {
				TraceEvents []struct {
					Name, Ph string
					Dur      float64
				}
			}
			b, err := os.ReadFile(rd.Trace)
			if err == nil {
				err = json.Unmarshal(b, &tr)
			}
			if err != nil || len(tr.TraceEvents) == 0 {
				t.Errorf("%s: trace %s: %d events, %v", w.name, rd.Trace, len(tr.TraceEvents), err)
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, scratchJournal)); len(left) > 0 {
		t.Errorf("scratch journals left behind: %v", left)
	}
}

func TestPercentiles(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		v    []float64
		p    float64
		want float64
	}{
		{ten, 50, 5}, {ten, 90, 9}, {ten, 99, 10}, {ten, 0, 1},
		{ten[:5], 90, 5}, // fewer than ten samples: the p90 is the slowest
		{ten[:1], 50, 1}, {nil, 50, 0},
	} {
		if got := percentile(c.v, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.v, c.p, got, c.want)
		}
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{8, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) of the same lists.
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{5.0, 5.2}, 4.95, 5.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestFold(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sp := func(layer string, lane, from, to, parent int) span {
		return span{Layer: layer, Lane: lane, Start: ms(from), End: ms(to), Parent: parent}
	}
	for _, c := range []struct {
		name  string
		spans []span
		want  map[string]int
	}{
		{"one after another: duration minus what children cover", []span{
			sp(layerBench, 0, 0, 100, -1),
			sp(layerDist, 0, 10, 40, 0),
			sp(layerCore, 0, 50, 70, 0),
			sp(layerDist, 0, 55, 60, 2),
		}, map[string]int{layerBench: 50, layerDist: 35, layerCore: 15}},
		{"side by side: the instant is shared", []span{
			sp(layerCore, 0, 0, 100, -1),
			sp(layerApps, 1, 0, 100, 0),
			sp(layerSim, 2, 0, 50, 0),
		}, map[string]int{layerApps: 75, layerSim: 25}},
		{"children are clipped to their parent, strangers ignored", []span{
			sp(layerBench, 0, 0, 100, -1),
			sp(layerDist, 0, 20, 60, 0),
			sp(layerCore, 1, 10, 30, 1),  // began before its parent did
			sp(layerCore, 1, 50, 90, 1),  // outlived it
			sp(layerDist, 9, 0, 100, -1), // another root
		}, map[string]int{layerBench: 60, layerDist: 20, layerCore: 20}},
	} {
		got := fold(c.spans, 0)
		var sum time.Duration
		for l, d := range got {
			sum += d
			if d != ms(c.want[l]) {
				t.Errorf("%s: %s = %v, want %v", c.name, l, d, ms(c.want[l]))
			}
		}
		if len(got) != len(c.want) || sum != ms(100) {
			t.Errorf("%s: got %v (sum %v), want %v summing to the root's 100ms", c.name, got, sum, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"latency_ms", "ms", "lower", 0.10}
	higher := metricDef{"rate", "1/s", "higher", 0.10}
	for _, c := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{5}, []float64{5.4}, "ok"},
		{lower, []float64{5}, []float64{5.6}, "worse"},
		{lower, []float64{5}, []float64{3}, "ok"},
		{higher, []float64{100}, []float64{91}, "ok"},
		{higher, []float64{100}, []float64{89}, "worse"},
		{lower, []float64{5, 5.1, 5.2}, []float64{5.7, 5.8, 5.9}, "worse"},
		// A's own runs spread by more than the bound: the medians settle nothing ...
		{lower, []float64{4, 5, 6}, []float64{5.7, 5.8, 5.9}, "unresolved"},
		{lower, []float64{4, 5, 6}, []float64{4.9, 5, 5.1}, "unresolved"},
		// ... unless every run of B beats every run of A.
		{lower, []float64{4, 5, 6}, []float64{3.7, 3.8, 3.9}, "ok"},
	} {
		if got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %q, want %q", c.def.name, c.a, c.b, got, c.want)
		}
	}
}

// -compare on two documents: one row per workload and metric, and a
// regression is reported to the caller.
func TestCompareDocs(t *testing.T) {
	write := func(name string, p50 float64, failed int) string {
		m := make(map[string]metric)
		for _, d := range endToEndDefs {
			m[d.name] = metric{Value: 10, Unit: d.unit}
		}
		m["unit_ms_p50"] = metric{Value: p50, Unit: "ms"}
		d := doc{Workloads: map[string]*workloadDoc{"dist-hit": {Timed: []runDoc{{NUnits: 100, Failed: failed, Metrics: m}}}}}
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 10, 0)
	for _, c := range []struct {
		name  string
		other string
		worse bool
	}{
		{"same", write("b.json", 10.5, 0), false},
		{"slower", write("b.json", 13, 0), true},
		{"faster but failing", write("b.json", 8, 1), true},
	} {
		var out bytes.Buffer
		worse, err := compareDocs(&out, base, c.other)
		if err != nil || worse != c.worse {
			t.Errorf("%s: worse = %v, %v; want %v\n%s", c.name, worse, err, c.worse, out.String())
		}
		if rows := strings.Count(out.String(), "dist-hit"); rows != len(endToEndDefs)+1 {
			t.Errorf("%s: %d rows for dist-hit, want one per end-to-end metric and one for failures\n%s", c.name, rows, out.String())
		}
	}
}
