package core

import (
	"context"
	"flag"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/atm"
)

var updateGolden = flag.Bool("update-sim-golden", false, "rewrite testdata/sim_golden.json from this tree")

// simGoldenItems are the simulated-network reports whose bytes pin the
// kernel's event order: the six sim-sweep items (bench/inproc.go's
// sweepItems, same options) plus the three other scenarios that run on
// sim + netsim.
var simGoldenItems = []struct {
	key, scenario string
	opts          []Option
}{
	{"figure1-oc48", "figure1-throughput", nil},
	{"figure1-oc12ext", "figure1-throughput", []Option{WithWAN(atm.OC12), WithExtensions()}},
	{"backbone-aggregate", "backbone-aggregate", []Option{WithFlows(4)}},
	{"mixed-traffic", "mixed-traffic", nil},
	{"video-d1", "video-d1", nil},
	{"fmri-pe-sweep", "fmri-pe-sweep", []Option{WithFrames(300)}},
	{"fmri-dataflow", "fmri-dataflow", nil},
	{"figure2-endtoend", "figure2-endtoend", nil},
	{"section3-applications", "section3-applications", nil},
}

// TestSimGolden compares the sha256 of each item's Report.JSON, at 1
// kernel, with digests recorded before the simulation kernel's queue
// was restructured: any change to which events fire, or in what
// (time, seq) order, moves some report byte. The keys keep the
// "/kernels=1" suffix they were recorded under. Regenerate only for a
// change that means to alter the simulated network, with
// go test ./internal/core -run TestSimGolden -update-sim-golden.
func TestSimGolden(t *testing.T) {
	// The digests are amd64's: the Go compiler fuses a*b+c into one FMA
	// instruction on arm64, ppc64le and s390x, which rounds once instead
	// of twice and moves the last bit of some float64 report fields.
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64 (FMA contraction differs on %s)", runtime.GOARCH)
	}
	got := make(map[string]string)
	for _, it := range simGoldenItems {
		rep, err := Run(context.Background(), it.scenario, it.opts...)
		if err != nil {
			t.Fatalf("%s: %v", it.key, err)
		}
		got[it.key+"/kernels=1"] = reportDigest(t, it.key, rep)
	}
	checkDigests(t, filepath.Join("testdata", "sim_golden.json"), got, *updateGolden)
}
