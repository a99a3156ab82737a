package gtw

import (
	"context"
	"encoding/json"
	"testing"
)

// runTyped runs a registered scenario through the facade and decodes
// its measurement record into the scenario's typed report. (A sweep's
// Run result wraps the merged report with its shard timings, so the
// record — the same bytes either way — is the uniform way in.)
func runTyped(tb testing.TB, name string, into Report, opts ...Option) {
	tb.Helper()
	rep, err := Run(context.Background(), name, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := rep.JSON()
	if err != nil {
		tb.Fatal(err)
	}
	if err := json.Unmarshal(b, into); err != nil {
		tb.Fatalf("%s: decoding the record into %T: %v", name, into, err)
	}
}

// The facade must expose a working end-to-end path: build the testbed,
// run a transfer, reserve resources, run an experiment driver.
func TestFacadeQuickstartPath(t *testing.T) {
	tb := NewTestbed(Config{})
	res, err := tb.TCPTransfer(HostT3E600, HostSP2, 16<<20, TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputBps < 200e6 || res.ThroughputBps > 280e6 {
		t.Errorf("facade transfer = %.1f Mbit/s", res.ThroughputBps/1e6)
	}
	if err := tb.Reserve("session", HostT3E600, HostOnyx2); err != nil {
		t.Fatal(err)
	}
	tb.Release("session")
}

func TestFacadeTables(t *testing.T) {
	var t1 Table1Report
	runTyped(t, "table1-model", &t1)
	paper, model := PaperTable1(), t1.Model
	if len(paper) != 9 || len(model) != 9 {
		t.Fatalf("table lengths %d/%d", len(paper), len(model))
	}
	if paper[8].Speedup != 110.5 {
		t.Errorf("paper table corrupted: %v", paper[8])
	}
	if model[8].Speedup < 105 || model[8].Speedup > 116 {
		t.Errorf("model speedup at 256 PEs = %.1f", model[8].Speedup)
	}
}

func TestFacadeExperiments(t *testing.T) {
	var fmri FMRIDataflowReport
	runTyped(t, "fmri-dataflow", &fmri, WithPEs(256), WithFrames(6))
	if fmri.Result.MaxGUIDelay >= 5 {
		t.Errorf("scenario delay %.2f s", fmri.Result.MaxGUIDelay)
	}
	var fw FutureWorkReport
	runTyped(t, "future-work", &fw)
	if fw.BWiNSaturation < 1998 || fw.BWiNSaturation > 2001 {
		t.Errorf("saturation %.2f", fw.BWiNSaturation)
	}
	var up UpgradeReport
	runTyped(t, "backbone-aggregate", &up, WithFlows(2))
	if len(up.Aggregate) == 0 || up.Aggregate[0].Backbone != OC12 || up.Aggregate[0].AggregateMbps <= 0 {
		t.Errorf("no OC-12 aggregate throughput: %+v", up.Aggregate)
	}
	if OC3.PayloadRate() >= OC12.PayloadRate() || OC12.PayloadRate() >= OC48.PayloadRate() {
		t.Error("carrier ordering broken")
	}
}

func TestFacadeExtensions(t *testing.T) {
	tb := NewTestbed(Config{Extensions: true})
	if _, err := tb.Host(HostUniBonn); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Host(HostDLR); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Host(HostUniKoeln); err != nil {
		t.Fatal(err)
	}
}
