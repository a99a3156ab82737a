package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/video"
	"repro/internal/wirejson"
)

// wireType is one point type a registered sweep declares: how
// json.Unmarshal decodes it, whether its reader alone takes b, and a
// value of it built from fuzz input.
type wireType struct {
	unmarshal func(b []byte) (any, error)
	fast      func(b []byte) bool
	build     func(s string, x float64, n int64) any
}

func wireTypeOf[T any](read func(*wirejson.Reader, *T), build func(s string, x float64, n int64) T) wireType {
	return wireType{
		unmarshal: func(b []byte) (any, error) {
			var v T
			err := json.Unmarshal(b, &v)
			return v, err
		},
		fast: func(b []byte) bool {
			_, ok := wirejson.Read(b, read)
			return ok
		},
		build: func(s string, x float64, n int64) any { return build(s, x, n) },
	}
}

// sweepWireTypes names the point type of every registered sweep with a
// wire codec; wrapped scenarios all travel as WireReport.
var sweepWireTypes = map[string]wireType{
	"figure1-throughput": wireTypeOf(readFigure1Row, func(s string, x float64, n int64) Figure1Row {
		return Figure1Row{Path: s, Src: s + "<", Dst: "&" + s, MTU: int(n), Mbps: x, PaperMbps: -x / 3, Note: strings.ToUpper(s)}
	}),
	"backbone-aggregate": wireTypeOf(readAggregateRow, func(s string, x float64, n int64) AggregateRow {
		row := AggregateRow{Backbone: atm.OC(n), Flows: len(s), AggregateMbps: x}
		if len(s) > 0 { // nil, then empty and longer rates
			row.PerFlowMbps = make([]float64, len(s)-1)
			for i := range row.PerFlowMbps {
				row.PerFlowMbps[i] = x * float64(s[i])
			}
		}
		return row
	}),
	"mixed-traffic": wireTypeOf(readMixedTrafficResult, func(s string, x float64, n int64) MixedTrafficResult {
		return MixedTrafficResult{Backbone: atm.OC(len(s)), BulkMbps: x, Video: video.StreamResult{
			Frames: int(n), OnTime: int(n / 2), Late: -int(n), LostPackets: len(s),
			MeanDelay: time.Duration(n), PeakJitter: time.Duration(n) * 3}}
	}),
	"fmri-pe-sweep": wireTypeOf(readFMRIDataflowReport, func(s string, x float64, n int64) FMRIDataflowReport {
		return FMRIDataflowReport{
			Scenario: FMRIScenario{PEs: int(n), TR: x, Frames: len(s), NX: 64, NY: -1, NZ: int(n % 7),
				ScannerDelay: x / 7, ControlOverhead: 0.35, DisplayTime: -x},
			Result: FMRIScenarioResult{Frames: int(n), MeanGUIDelay: x, MaxGUIDelay: x * x,
				MeanVRDelay: 1 / (1 + math.Abs(x)), ComputeSeconds: 1e-300, WireSeconds: 1e300},
		}
	}),
}

var wireReportType = wireTypeOf(readWireReport, func(s string, x float64, n int64) WireReport {
	r, _ := json.Marshal(map[string]any{"s": s, "x": x, "n": n}) // cannot fail: x is finite
	return WireReport{R: r, T: s}
})

// wiredSweep is a registered scenario's wire sweep and its point type.
type wiredSweep struct {
	name string
	sw   *Sweep
	wt   wireType
}

// wiredSweeps lists every registered scenario that can travel to a
// worker, and fails for a sweep whose point type the test does not know.
func wiredSweeps(t testing.TB) []wiredSweep {
	var out []wiredSweep
	for _, s := range Scenarios() {
		p := PlanFor(s)
		if !p.Distributable() {
			continue
		}
		wt, ok := sweepWireTypes[s.Name()]
		switch {
		case p.wrapped:
			wt = wireReportType
		case !ok && strings.HasPrefix(s.Name(), "test-"):
			continue
		case !ok:
			t.Fatalf("sweep %s has a wire codec, but sweepWireTypes does not name its point type", s.Name())
		}
		out = append(out, wiredSweep{s.Name(), p.Sweep(), wt})
	}
	return out
}

// checkDecode compares a sweep's DecodePoint with json.Unmarshal into
// the point type: the same value, and an error exactly when it errors.
func checkDecode(t *testing.T, w wiredSweep, b []byte) {
	t.Helper()
	got, err := w.sw.DecodePoint(b)
	want, wantErr := w.wt.unmarshal(b)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: DecodePoint(%q) error %v, json.Unmarshal %v", w.name, b, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: DecodePoint(%q) = %#v, json.Unmarshal gives %#v", w.name, b, got, want)
	}
}

// FuzzDecodePoint holds every wired sweep's point decoder to
// json.Unmarshal, on arbitrary bytes and on json.Marshal of values
// built from the input, which its reader must take without falling
// back. go test replays the corpus in testdata/fuzz; explore with
// go test -run '^$' -fuzz FuzzDecodePoint -fuzztime 30s ./internal/core.
func FuzzDecodePoint(f *testing.F) {
	f.Add([]byte(`{"Path":"p","Src":"","Dst":"","MTU":0,"Mbps":1.5,"PaperMbps":0,"Note":""}`), "grid 30 point 5", 262.9107, int64(9180))
	f.Add([]byte(`{"report":{"Rows":[1,2]},"text":"F1\n"}`), "Jülich \u2028 <&>", -0.0, int64(-1))
	wired := wiredSweeps(f)
	f.Fuzz(func(t *testing.T, in []byte, s string, x float64, n int64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0 // json.Marshal refuses them; a point never holds one
		}
		for _, w := range wired {
			checkDecode(t, w, in)
			b, err := w.sw.EncodePoint(w.wt.build(s, x, n))
			if err != nil {
				t.Fatalf("%s: encoding: %v", w.name, err)
			}
			if !w.wt.fast(b) {
				t.Fatalf("%s: the reader does not take json.Marshal's %s", w.name, b)
			}
			checkDecode(t, w, b)
		}
	})
}

// Every report a registered scenario writes is already in the form
// json.Marshal gives a json.RawMessage — compact, with <, >, &, U+2028
// and U+2029 escaped — so splicing it into a job status or a journal
// record (wirejson.AppendRaw) writes the bytes re-compacting it did.
func TestReportJSONIsCanonical(t *testing.T) {
	names := make([]string, 0, len(Scenarios()))
	for _, s := range Scenarios() {
		if !strings.HasPrefix(s.Name(), "test-") {
			names = append(names, s.Name())
		}
	}
	results, err := RunAll(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		b, err := r.Report.JSON()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		again, err := json.Marshal(json.RawMessage(b))
		if err != nil || !bytes.Equal(again, b) {
			t.Errorf("%s: json.Marshal changes the report's bytes (%v)", r.Name, err)
		}
		if spliced, err := wirejson.AppendRaw(nil, b); err != nil || !bytes.Equal(spliced, again) {
			t.Errorf("%s: the spliced report differs from the re-compacted one (%v)", r.Name, err)
		}
	}
}

// Many goroutines key one fresh sweep at once — the first ones race to
// build the key memo — and every key matches what a serial pass over a
// twin sweep computes.
func TestPointKeyConcurrentKeying(t *testing.T) {
	mk := func() *Sweep {
		return NewSweep("keyconcurrency", "", []Axis{
			{Name: "mtu", Values: []any{1500, 9180, 65280}},
			{Name: "host", Values: []any{"ws-juelich", "ws-gmd <&>"}},
		}, nil, nil).PointDeps(OptWAN, OptFrames)
	}
	opts := Options{WAN: atm.OC48, Frames: 30}
	serial := mk()
	var want []string
	for _, pt := range serial.Points() {
		want = append(want, serial.PointKey(opts, pt))
	}
	sw := mk()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pts := sw.Points()
			for k := range 4 * len(pts) {
				i := (g + k) % len(pts)
				if got := sw.PointKey(opts, pts[i]); got != want[i] {
					t.Errorf("goroutine %d: key of point %d = %s, want %s", g, i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	// A point that is not one of the grid's is keyed from its own
	// coordinates, not from the memo: as grid point 0 of a sweep whose
	// grid starts there.
	twin := NewSweep("keyconcurrency", "", []Axis{
		{Name: "mtu", Values: []any{1500}},
		{Name: "host", Values: []any{"ws-gmd <&>"}},
	}, nil, nil).PointDeps(OptWAN, OptFrames)
	foreign := Point{Index: 0, Coords: []any{1500, "ws-gmd <&>"}}
	if got, want := sw.PointKey(opts, foreign), twin.PointKey(opts, twin.Points()[0]); got != want {
		t.Errorf("foreign point keyed %s, want %s", got, want)
	}
}
