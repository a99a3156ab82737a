package core

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/fire"
	"repro/internal/mri"
	"repro/internal/tcpsim"
	"repro/internal/volume"
)

func TestFramers(t *testing.T) {
	// ATM/CLIP: 9180-byte IP packet -> 192 cells -> 10176 wire bytes.
	if got := (ATMFramer{}).WireSize(9180); got != 192*53 {
		t.Errorf("ATM wire size = %d", got)
	}
	if (ATMFramer{}).Name() == "" || (HiPPIFramer{}).Name() == "" {
		t.Error("framers must be named")
	}
	// HiPPI: wire size reflects burst framing; efficiency near 1 for
	// big packets, worse for small ones.
	big := (HiPPIFramer{}).WireSize(1 << 20)
	if ratio := float64(big) / float64(1<<20); ratio < 1.0 || ratio > 1.1 {
		t.Errorf("HiPPI 1MiB expansion = %.3f", ratio)
	}
	small := (HiPPIFramer{}).WireSize(64)
	if ratio := float64(small) / 64; ratio < 2 {
		t.Errorf("HiPPI 64B expansion = %.2f, setup cost should dominate", ratio)
	}
}

func TestTopologyHosts(t *testing.T) {
	tb := New(Config{})
	names := tb.HostNames()
	for _, want := range []string{HostT3E600, HostT3E1200, HostT90, HostSP2, HostOnyx2,
		HostSwitchFZJ, HostSwitchGMD, HostGatewayFZJ, HostGatewayGMD} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("host %q missing from topology", want)
		}
	}
	if _, err := tb.Host("no-such-host"); err == nil {
		t.Error("unknown host resolved")
	}
	if _, ok := tb.Machine(HostT3E600); !ok {
		t.Error("T3E has no machine model")
	}
	if _, ok := tb.Machine(HostSwitchFZJ); ok {
		t.Error("switch should not have a machine model")
	}
}

func TestExtensionsSites(t *testing.T) {
	tb := New(Config{Extensions: true})
	for _, h := range []string{HostDLR, HostUniKoeln, HostUniBonn} {
		if _, err := tb.Host(h); err != nil {
			t.Errorf("extension host %q missing", h)
		}
	}
	// Extension sites reach Jülich across the backbone.
	if _, err := tb.TCPTransfer(HostUniBonn, HostWSJuelich, 1<<20, tcpsim.Config{}); err != nil {
		t.Errorf("Bonn -> Jülich transfer failed: %v", err)
	}
	// Without extensions they do not exist.
	tb = New(Config{})
	if _, err := tb.Host(HostDLR); err == nil {
		t.Error("DLR present without extensions")
	}
}

func TestLocalCrayComplexThroughput(t *testing.T) {
	tb := New(Config{})
	res, err := tb.TCPTransfer(HostT3E600, HostT3E1200, 96<<20, tcpsim.Config{WindowBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	mbps := res.ThroughputBps / 1e6
	// Paper: "transfer rates of more than 430 Mbit/s are achieved
	// within the local Cray complex ... with an MTU of 64 KByte".
	if mbps < 420 || mbps > 450 {
		t.Errorf("local HiPPI TCP = %.1f Mbit/s, want ~430-440", mbps)
	}
}

func TestWANT3EToSP2Throughput(t *testing.T) {
	tb := New(Config{})
	res, err := tb.TCPTransfer(HostT3E600, HostSP2, 96<<20, tcpsim.Config{WindowBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	mbps := res.ThroughputBps / 1e6
	// Paper: "First measurements show a throughput of more than 260
	// Mbit/s between the Cray T3E in Jülich and the IBM SP2 ...
	// mainly due to the limitations of the I/O system of the
	// microchannel-based SP nodes."
	if mbps < 250 || mbps > 268 {
		t.Errorf("WAN T3E->SP2 = %.1f Mbit/s, want ~255-265", mbps)
	}
}

func TestWANRTTDominatedByPropagation(t *testing.T) {
	tb := New(Config{})
	rtt, err := tb.RTT(HostWSJuelich, HostWSGMD)
	if err != nil {
		t.Fatal(err)
	}
	// 2 x 500 us propagation plus switch hops.
	if rtt < time.Millisecond || rtt > 2*time.Millisecond {
		t.Errorf("WAN RTT = %v, want ~1.1 ms", rtt)
	}
}

func TestOC12vsOC48Backbone(t *testing.T) {
	// Workstation-to-workstation flows see the 622 attach either
	// way, but the OC-12 backbone is the narrower pipe in the 1997
	// configuration.
	tb12 := New(Config{WAN: atm.OC12})
	r12, err := tb12.TCPTransfer(HostWSJuelich, HostWSGMD, 64<<20, tcpsim.Config{WindowBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tb48 := New(Config{WAN: atm.OC48})
	r48, err := tb48.TCPTransfer(HostWSJuelich, HostWSGMD, 64<<20, tcpsim.Config{WindowBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if r48.ThroughputBps < r12.ThroughputBps {
		t.Errorf("OC-48 (%.0f) slower than OC-12 (%.0f)", r48.ThroughputBps/1e6, r12.ThroughputBps/1e6)
	}
}

func TestCoAllocation(t *testing.T) {
	tb := New(Config{})
	// The fMRI session: up to 5 computers simultaneously.
	err := tb.Reserve("fmri", HostT3E600, HostOnyx2, HostWSJuelich, HostGatewayFZJ, HostGatewayGMD)
	if err != nil {
		t.Fatal(err)
	}
	// A competing session cannot take the T3E.
	if err := tb.Reserve("climate", HostT3E600, HostSP2); err == nil {
		t.Error("double allocation permitted")
	}
	// The failed reservation must not have leaked partial holds.
	if owner := tb.Allocations()[HostSP2]; owner != "" {
		t.Errorf("SP2 leaked to %q after failed reservation", owner)
	}
	// Re-reserving within the same session is fine.
	if err := tb.Reserve("fmri", HostT3E600); err != nil {
		t.Errorf("re-reserve within session failed: %v", err)
	}
	tb.Release("fmri")
	if err := tb.Reserve("climate", HostT3E600, HostSP2); err != nil {
		t.Errorf("reserve after release failed: %v", err)
	}
	if err := tb.Reserve("", HostT90); err == nil {
		t.Error("empty session accepted")
	}
	if err := tb.Reserve("x", "bogus"); err == nil {
		t.Error("unknown host accepted")
	}
}

func TestFigure1Experiment(t *testing.T) {
	// One fresh testbed per probe, as the figure1-throughput sweep runs
	// them, plus the analytic backbone rows.
	var rows []Figure1Row
	for _, p := range f1probes {
		row, err := figure1Probe(New(Config{}), p)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	rows = append(rows, figure1AnalyticRows()...)
	if len(rows) < 6 {
		t.Fatalf("%d rows", len(rows))
	}
	// Every row with a paper value must be within 15% of it (the
	// analytic backbone rows compare payload to line rate, skip).
	for _, r := range rows[:2] {
		if r.PaperMbps > 0 {
			ratio := r.Mbps / r.PaperMbps
			if ratio < 0.9 || ratio > 1.15 {
				t.Errorf("%s: %.1f vs paper %.0f Mbit/s", r.Path, r.Mbps, r.PaperMbps)
			}
		}
	}
	// MTU ordering: 64K > 9180 > 1500 on the workstation path.
	if !(rows[2].Mbps > rows[3].Mbps && rows[3].Mbps > rows[4].Mbps) {
		t.Errorf("MTU sweep not monotone: %.1f, %.1f, %.1f", rows[2].Mbps, rows[3].Mbps, rows[4].Mbps)
	}
	text := FormatFigure1(rows)
	if !strings.Contains(text, "Cray") {
		t.Error("format output incomplete")
	}
}

func TestFigure2Experiment(t *testing.T) {
	r, err := figure2EndToEndOn(context.Background(), New(Config{}), 256, 30)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalDelay >= 5 {
		t.Errorf("total delay %.2f s, paper promises < 5", r.TotalDelay)
	}
	if r.SafeTR != 3.0 {
		t.Errorf("safe TR = %.1f", r.SafeTR)
	}
	if r.Session.DroppedScans != 0 {
		t.Errorf("unpipelined session at TR=3 dropped %d", r.Session.DroppedScans)
	}
	if r.PipelinedSession.DroppedScans != 0 {
		t.Errorf("pipelined session at TR=2 dropped %d", r.PipelinedSession.DroppedScans)
	}
	if r.ScannerTransferMs <= 0 || r.ScannerTransferMs > 200 {
		t.Errorf("raw volume hop = %.1f ms", r.ScannerTransferMs)
	}
	if !strings.Contains(FormatFigure2(r), "total delay") {
		t.Error("format output incomplete")
	}
}

func TestFigure3Experiment(t *testing.T) {
	r, err := Figure3Overlay()
	if err != nil {
		t.Fatal(err)
	}
	if r.ActivatedVoxels == 0 {
		t.Error("no activation detected")
	}
	if r.PeakCorrelation < 0.7 {
		t.Errorf("peak correlation %.3f", r.PeakCorrelation)
	}
	if len(r.ROICourse) != r.Scans {
		t.Errorf("ROI course %d samples for %d scans", len(r.ROICourse), r.Scans)
	}
	if r.PNGBytes <= 0 {
		t.Error("no PNG produced")
	}
	if !strings.Contains(FormatFigure3(r), "peak r") {
		t.Error("format output incomplete")
	}
}

func TestFigure3StreamedROICourseEqualsSeries(t *testing.T) {
	// figure3-overlay keeps no scan: it folds the first pass into the
	// correlator and averages the ROI of a replayed second pass. The
	// reference keeps a clone of every scan, correlates the series and
	// sums each scan's ROI in voxel order; every bit must agree.
	got, err := Figure3Overlay()
	if err != nil {
		t.Fatal(err)
	}
	ph, cfg := figure3Measurement()
	sc := mri.NewScanner(ph, cfg)
	var series []*volume.Volume
	for v := sc.Next(); v != nil; v = sc.Next() {
		series = append(series, &volume.Volume{NX: v.NX, NY: v.NY, NZ: v.NZ, Data: slices.Clone(v.Data)})
	}
	corr := fire.NewCorrelator(sc.Reference(0), cfg.NX, cfg.NY, cfg.NZ)
	for _, v := range series {
		if err := corr.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	m, err := corr.Map()
	if err != nil {
		t.Fatal(err)
	}
	var roi []int
	for i, r := range m.Data {
		if float64(r) >= 0.5 {
			roi = append(roi, i)
		}
	}
	if got.Scans != len(series) || got.ActivatedVoxels != len(roi) || len(got.ROICourse) != len(series) {
		t.Fatalf("%d scans, %d ROI voxels, %d course samples; the series gives %d, %d, %d",
			got.Scans, got.ActivatedVoxels, len(got.ROICourse), len(series), len(roi), len(series))
	}
	for k, v := range series {
		var s float64
		for _, i := range roi {
			s += float64(v.Data[i])
		}
		if want := s / float64(len(roi)); math.Float64bits(got.ROICourse[k]) != math.Float64bits(want) {
			t.Errorf("scan %d: streamed ROI mean %v, series %v", k, got.ROICourse[k], want)
		}
	}
}

func TestFigure4Experiment(t *testing.T) {
	r, err := figure4WorkbenchOn(context.Background(), New(Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// The headline: < 8 fps on OC-12 classical IP.
	if r.Rows[0].FPS >= 8 || r.Rows[0].FPS < 6 {
		t.Errorf("OC-12 CLIP = %.2f fps, want in [6, 8)", r.Rows[0].FPS)
	}
	// Measured TCP streaming lands in the same regime.
	if r.StreamFPS >= 8 || r.StreamFPS < 5.5 {
		t.Errorf("measured stream = %.2f fps, want < 8", r.StreamFPS)
	}
	if !strings.Contains(FormatFigure4(r), "frames/s") {
		t.Error("format output incomplete")
	}
}

func TestSection3Experiment(t *testing.T) {
	rows, err := section3ApplicationsOn(context.Background(), New(Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("application %q requirement not met: %s", r.App, r.Achieved)
		}
	}
	if !strings.Contains(FormatSection3(rows), "groundwater") {
		t.Error("format output incomplete")
	}
}

// HostNames lists all hosts (sorted).
func (tb *Testbed) HostNames() []string {
	out := make([]string, 0, len(tb.hosts))
	for name := range tb.hosts {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Allocations reports the current host -> session assignment.
func (tb *Testbed) Allocations() map[string]string {
	tb.allocMu.Lock()
	defer tb.allocMu.Unlock()
	out := make(map[string]string, len(tb.alloc))
	for h, s := range tb.alloc {
		out[h] = s
	}
	return out
}

// BackboneUtilization reports the WAN link's busy fraction over the
// simulation so far (both directions; 2.0 = saturated duplex).
func (tb *Testbed) BackboneUtilization() float64 {
	tb.simMu.Lock()
	defer tb.simMu.Unlock()
	if now := tb.Net.K.Now(); now > 0 {
		return tb.backbone.BusyTime.Seconds() / now.Seconds()
	}
	return 0
}

// BackboneWireBytes reports total framed bytes carried on the WAN link.
func (tb *Testbed) BackboneWireBytes() int64 {
	tb.simMu.Lock()
	defer tb.simMu.Unlock()
	return tb.backbone.WireBytes
}
