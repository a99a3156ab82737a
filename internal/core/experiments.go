package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/atm"
	"repro/internal/fire"
	"repro/internal/mri"
	"repro/internal/tcpsim"
	"repro/internal/video"
	"repro/internal/viz"
	"repro/internal/volume"
)

// This file contains the experiment drivers that regenerate the paper's
// quantitative content. Each driver takes the testbed it measures
// (figure1Probe, figure2EndToEndOn, ...), so the registered scenarios
// can share one contended testbed.

// ---------------------------------------------------------------- F1 --

// Figure1Row is one path measurement of the testbed-performance
// experiment (the quantitative content of Figure 1 / section 2).
type Figure1Row struct {
	Path      string
	Src, Dst  string
	MTU       int // 0 = path MTU
	Mbps      float64
	PaperMbps float64 // 0 = no direct paper figure
	Note      string
}

// f1probe is one throughput probe of the figure-1 experiment.
type f1probe struct {
	path, src, dst string
	mtu            int
	paper          float64
	note           string
}

var f1probes = []f1probe{
	{"local Cray complex over HiPPI (64K MTU)", HostT3E600, HostT3E1200, 0, 430,
		"paper: >430 Mbit/s TCP/IP with 64 KByte MTU"},
	{"Cray T3E -> IBM SP2 over the WAN", HostT3E600, HostSP2, 0, 260,
		"paper: >260 Mbit/s, limited by SP2 microchannel I/O"},
	{"622 Mbit/s ATM workstations over the WAN (64K MTU)", HostWSJuelich, HostWSGMD, 0, 0,
		"approaches the OC-12 attach payload limit"},
	{"same path, default CLIP MTU (9180)", HostWSJuelich, HostWSGMD, 9180, 0,
		"per-packet costs start to matter"},
	{"same path, Ethernet-class MTU (1500)", HostWSJuelich, HostWSGMD, 1500, 0,
		"the case the 64 KByte MTU avoids"},
}

// figure1Probe runs one probe transfer on the given testbed.
func figure1Probe(tb *Testbed, p f1probe) (Figure1Row, error) {
	cfg := tcpsim.Config{WindowBytes: 4 << 20}
	if p.mtu != 0 {
		cfg.MSS = p.mtu - tcpsim.HeaderBytes
	}
	res, err := tb.TCPTransfer(p.src, p.dst, 96<<20, cfg)
	if err != nil {
		return Figure1Row{}, fmt.Errorf("core: figure-1 probe %q: %w", p.path, err)
	}
	return Figure1Row{
		Path: p.path, Src: p.src, Dst: p.dst, MTU: p.mtu,
		Mbps: res.ThroughputBps / 1e6, PaperMbps: p.paper, Note: p.note,
	}, nil
}

// figure1AnalyticRows returns the backbone capacity rows (no single
// host can fill OC-48; its capacity is an arithmetic property of
// SDH+ATM framing).
func figure1AnalyticRows() []Figure1Row {
	return []Figure1Row{
		{Path: "backbone capacity OC-12 (1997/98)", Mbps: atm.OC12.ATMPayloadRate() / 1e6,
			PaperMbps: 622, Note: "line 622.08; AAL5 payload after SDH+cell tax"},
		{Path: "backbone capacity OC-48 (since 8/1998)", Mbps: atm.OC48.ATMPayloadRate() / 1e6,
			PaperMbps: 2400, Note: "line 2488.32; AAL5 payload after SDH+cell tax"},
	}
}

// f1probeValues returns the probes as a sweep axis: each probe is one
// grid point of the figure1-throughput sweep.
func f1probeValues() []any {
	vals := make([]any, len(f1probes))
	for i, p := range f1probes {
		vals[i] = p
	}
	return vals
}

// FormatFigure1 renders the rows as a text table.
func FormatFigure1(rows []Figure1Row) string {
	var sb strings.Builder
	sb.WriteString("F1: testbed path performance (measured on the simulated testbed)\n")
	for _, r := range rows {
		paper := "      -"
		if r.PaperMbps > 0 {
			paper = fmt.Sprintf("%7.0f", r.PaperMbps)
		}
		fmt.Fprintf(&sb, "  %-52s %8.1f Mbit/s  paper %s  %s\n", r.Path, r.Mbps, paper, r.Note)
	}
	return sb.String()
}

// ---------------------------------------------------------------- F2 --

// Figure2Result reproduces the section-4 latency budget (Figure 2's
// dataflow, quantified in the text).
type Figure2Result struct {
	PEs         int
	Stages      fire.StageTimes
	TotalDelay  float64
	Unpipelined float64
	Pipelined   float64
	SafeTR      float64
	// ScannerTransferMs is the measured time to move one raw
	// 64x64x16 volume from the RT-server workstation to the T3E, a
	// campus hop inside Jülich (context for the 1.1 s transfer budget,
	// which is dominated by control-message round trips, not bytes).
	ScannerTransferMs float64
	Session           fire.SessionResult
	PipelinedSession  fire.SessionResult
}

// figure2EndToEndOn evaluates the latency budget at the given PE count,
// measuring the raw-volume hop on the given testbed.
func figure2EndToEndOn(ctx context.Context, tb *Testbed, pes, frames int) (Figure2Result, error) {
	if err := ctx.Err(); err != nil {
		return Figure2Result{}, err
	}
	model := fire.DefaultT3E600()
	st := fire.PaperStageTimes(model, pes)
	res := Figure2Result{
		PEs: pes, Stages: st,
		TotalDelay:  st.TotalDelay(),
		Unpipelined: st.UnpipelinedPeriod(),
		Pipelined:   st.PipelinedPeriod(),
		SafeTR:      fire.SafeTR(st.UnpipelinedPeriod()),
	}
	// Measure the raw-volume hop on the testbed: a 64x64x16 volume of
	// float32 voxels, the bytes volume.New(64, 64, 16).Bytes() counts.
	const rawVolumeBytes = 64 * 64 * 16 * 4
	tr, err := tb.TCPTransfer(HostWSJuelich, HostT3E600, rawVolumeBytes, tcpsim.Config{})
	if err != nil {
		return res, err
	}
	res.ScannerTransferMs = tr.Duration.Seconds() * 1000

	sess, err := fire.SimulateSession(st, mri.SafeTR, frames, false)
	if err != nil {
		return res, err
	}
	res.Session = sess
	pip, err := fire.SimulateSession(st, mri.TypicalTR, frames, true)
	if err != nil {
		return res, err
	}
	res.PipelinedSession = pip
	return res, nil
}

// FormatFigure2 renders the latency budget.
func FormatFigure2(r Figure2Result) string {
	var sb strings.Builder
	sb.WriteString("F2: realtime fMRI end-to-end budget (section 4)\n")
	fmt.Fprintf(&sb, "  scan -> RT-server      %.2f s (paper: ~1.5)\n", r.Stages.ScanToServer)
	fmt.Fprintf(&sb, "  transfers + control    %.2f s (paper: ~1.1)\n", r.Stages.Transfers)
	fmt.Fprintf(&sb, "  T3E processing (%3d PE) %.2f s (Table 1)\n", r.PEs, r.Stages.Compute)
	fmt.Fprintf(&sb, "  client display         %.2f s (paper: ~0.6)\n", r.Stages.Display)
	fmt.Fprintf(&sb, "  total delay            %.2f s (paper: < 5 s)\n", r.TotalDelay)
	fmt.Fprintf(&sb, "  unpipelined period     %.2f s (paper: 2.7 s) -> safe TR %.1f s (paper: 3 s)\n",
		r.Unpipelined, r.SafeTR)
	fmt.Fprintf(&sb, "  pipelined period       %.2f s (the unexploited improvement)\n", r.Pipelined)
	fmt.Fprintf(&sb, "  raw volume campus hop  %.1f ms measured (bytes are not the 1.1 s bottleneck)\n",
		r.ScannerTransferMs)
	fmt.Fprintf(&sb, "  session @TR=3.0 unpipelined: %d frames, mean delay %.2f s, max %.2f s, drops %d\n",
		r.Session.Frames, r.Session.MeanDelay, r.Session.MaxDelay, r.Session.DroppedScans)
	fmt.Fprintf(&sb, "  session @TR=2.0 pipelined:   %d frames, mean delay %.2f s, max %.2f s, drops %d\n",
		r.PipelinedSession.Frames, r.PipelinedSession.MeanDelay, r.PipelinedSession.MaxDelay,
		r.PipelinedSession.DroppedScans)
	return sb.String()
}

// ---------------------------------------------------------------- F3 --

// Figure3Result reproduces the FIRE GUI content: the 2-D correlation
// overlay and an ROI time course from a synthetic measurement.
type Figure3Result struct {
	Scans           int
	ActivatedVoxels int
	PeakCorrelation float64
	ROICourse       []float64
	PNGBytes        int
}

// figure3Measurement is the subject and acquisition figure 3 analyses.
func figure3Measurement() (*mri.Phantom, mri.ScanConfig) {
	act := mri.Activation{CX: 32, CY: 30, CZ: 8, Radius: 5, Amplitude: 0.05, HRF: mri.DefaultHRF}
	return mri.NewPhantom(64, 64, 16, []mri.Activation{act}),
		mri.ScanConfig{NX: 64, NY: 64, NZ: 16, TR: 2, NScans: 48, NoiseStd: 3, Seed: 42}
}

// Figure3Overlay runs a small synthetic measurement through the
// analysis chain and renders the GUI overlay for the center slice.
// (No testbed involvement: pure analysis + rendering.)
func Figure3Overlay() (Figure3Result, error) {
	ph, cfg := figure3Measurement()
	// The first pass folds each scan into the correlator as it arrives.
	sc := mri.NewScanner(ph, cfg)
	corr := fire.NewCorrelator(sc.Reference(0), 64, 64, 16)
	for v := sc.Next(); v != nil; v = sc.Next() {
		if err := corr.Add(v); err != nil {
			return Figure3Result{}, err
		}
	}
	m, err := corr.Map()
	if err != nil {
		return Figure3Result{}, err
	}
	res := Figure3Result{Scans: corr.Scans()}
	clip := 0.5
	var roi []int
	for i, v := range m.Data {
		if float64(v) >= clip {
			roi = append(roi, i)
		}
		if float64(v) > res.PeakCorrelation {
			res.PeakCorrelation = float64(v)
		}
	}
	res.ActivatedVoxels = len(roi)
	// The map fixes the ROI only once every scan is in, so a second
	// scanner replays the identical measurement at the ROI's voxels
	// alone, and each scan is reduced to its ROI mean as it arrives,
	// summed in voxel order.
	if len(roi) > 0 {
		sc = mri.NewScanner(ph, cfg)
		vals := make([]float32, len(roi))
		res.ROICourse = make([]float64, 0, cfg.NScans)
		for sc.NextROI(roi, vals) {
			var s float64
			for _, x := range vals {
				s += float64(x)
			}
			res.ROICourse = append(res.ROICourse, s/float64(len(roi)))
		}
	}
	img, err := viz.RenderOverlay(ph.Anatomy, m, 8, clip)
	if err != nil {
		return res, err
	}
	if err := viz.WritePNG(&discardCounter{&res.PNGBytes}, img); err != nil {
		return res, err
	}
	return res, nil
}

// discardCounter counts bytes written.
type discardCounter struct{ n *int }

func (d *discardCounter) Write(p []byte) (int, error) {
	*d.n += len(p)
	return len(p), nil
}

// FormatFigure3 renders the result.
func FormatFigure3(r Figure3Result) string {
	var sb strings.Builder
	sb.WriteString("F3: FIRE 2-D GUI content (overlay + ROI time course)\n")
	fmt.Fprintf(&sb, "  %d scans analysed, %d voxels above clip 0.5, peak r = %.3f\n",
		r.Scans, r.ActivatedVoxels, r.PeakCorrelation)
	fmt.Fprintf(&sb, "  overlay rendered (%d PNG bytes); ROI course %d samples\n",
		r.PNGBytes, len(r.ROICourse))
	return sb.String()
}

// ---------------------------------------------------------------- F4 --

// Figure4Row is one workbench/3-D-visualization measurement.
type Figure4Row struct {
	Config string
	FPS    float64
	Paper  string
}

// Figure4Result covers the 3-D visualization pipeline: the merged
// MIP rendering and the Responsive Workbench streaming rates.
type Figure4Result struct {
	Rows      []Figure4Row
	StreamFPS float64 // measured: frames over the simulated OC-12 path
	PNGBytes  int
	// PNG is the rendered maximum-intensity projection of the merged
	// head ("the light areas are regions of the brain that are
	// activated"); excluded from JSON, PNGBytes records its size.
	PNG []byte `json:"-"`
}

// figure4WorkbenchOn reproduces the section-4 visualization numbers,
// measuring the workbench stream on the given testbed.
func figure4WorkbenchOn(ctx context.Context, tb *Testbed) (Figure4Result, error) {
	var res Figure4Result
	if err := ctx.Err(); err != nil {
		return res, err
	}
	// Merge 64x64x16 functional data onto the 256x256x128
	// high-resolution anatomy (the pre-measurement scan). The
	// functional map carries a motor-cortex-like activation region —
	// not a lone voxel — so the rendered head shows "light areas ...
	// that are activated" as in the paper's figure.
	corr := volume.New(64, 64, 16)
	const cx, cy, cz, radius = 24, 40, 10, 5.0
	for z := 0; z < 16; z++ {
		for y := 0; y < 64; y++ {
			for x := 0; x < 64; x++ {
				dx, dy, dz := float64(x-cx), float64(y-cy), float64(z-cz)
				d2 := dx*dx + dy*dy + dz*dz
				if d2 <= radius*radius {
					corr.Set(x, y, z, float32(0.9*math.Exp(-d2/(radius*radius))))
				}
			}
		}
	}
	// The head's projection comes in closed form and the merge is
	// sampled only where the map's support reaches, so neither a
	// 256x256x128 volume nor one of its planes is synthesized.
	const nx, ny, nz = 256, 256, 128
	peak, lo, hi := mri.HeadProjection(nx, ny, nz)
	mip := viz.NewMIP(nx, peak, lo, hi)
	mip.Activate(corr, nz, 0.5)
	img := mip.Image()
	var buf bytes.Buffer
	if err := viz.WritePNG(&buf, img); err != nil {
		return res, err
	}
	res.PNG = buf.Bytes()
	res.PNGBytes = buf.Len()

	res.Rows = []Figure4Row{
		{"OC-12, classical IP (MTU 9180)", viz.WorkbenchFPS(atm.OC12.PayloadRate(), atm.DefaultCLIPMTU),
			"paper: < 8 frames/s"},
		{"OC-12, 64 KByte MTU", viz.WorkbenchFPS(atm.OC12.PayloadRate(), atm.MaxCLIPMTU), ""},
		{"OC-48, classical IP (MTU 9180)", viz.WorkbenchFPS(atm.OC48.PayloadRate(), atm.DefaultCLIPMTU), ""},
	}

	// Measured: stream 20 workbench frames Onyx2 -> Jülich
	// workstation over the testbed WAN (TCP, 64K MTU).
	nbytes := int64(20) * int64(viz.WorkbenchFrameBytes)
	tr, err := tb.TCPTransfer(HostOnyx2, HostWSJuelich, nbytes, tcpsim.Config{WindowBytes: 4 << 20})
	if err != nil {
		return res, err
	}
	res.StreamFPS = 20 / tr.Duration.Seconds()
	return res, nil
}

// FormatFigure4 renders the result.
func FormatFigure4(r Figure4Result) string {
	var sb strings.Builder
	sb.WriteString("F4: 3-D visualization and Responsive Workbench streaming\n")
	fmt.Fprintf(&sb, "  merge 64x64x16 onto 256x256x128 + MIP render: %d PNG bytes\n", r.PNGBytes)
	for _, row := range r.Rows {
		note := row.Paper
		fmt.Fprintf(&sb, "  %-36s %6.2f frames/s  %s\n", row.Config, row.FPS, note)
	}
	fmt.Fprintf(&sb, "  measured stream Onyx2 -> Jülich over testbed: %.2f frames/s\n", r.StreamFPS)
	return sb.String()
}

// ---------------------------------------------------------------- A1 --

// AppRow is one application-requirements row (the section-3 project
// list).
type AppRow struct {
	App          string
	RequiredMbps float64
	Achieved     string
	OK           bool
}

// section3ApplicationsOn checks each application's WAN requirement.
// TCP and RTT probes run on the given testbed; the video row drives the
// simulation kernel directly and therefore uses a private testbed.
func section3ApplicationsOn(ctx context.Context, tb *Testbed) ([]AppRow, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var rows []AppRow
	// Groundwater: up to 30 MByte/s field transfers SP2 -> T3E.
	tr, err := tb.TCPTransfer(HostSP2, HostT3E600, 64<<20, tcpsim.Config{WindowBytes: 4 << 20})
	if err != nil {
		return nil, err
	}
	gw := tr.ThroughputBps / 8 / 1e6 // MByte/s
	rows = append(rows, AppRow{
		App: "groundwater (TRACE->PARTRACE field/step)", RequiredMbps: 240,
		Achieved: fmt.Sprintf("%.0f MByte/s sustained SP2->T3E", gw),
		OK:       gw >= 30,
	})
	// Climate: ~1 MByte bursts every timestep.
	tr, err = tb.TCPTransfer(HostT3E600, HostSP2, 1<<20, tcpsim.Config{WindowBytes: 4 << 20})
	if err != nil {
		return nil, err
	}
	rows = append(rows, AppRow{
		App: "climate (1 MByte coupler burst)", RequiredMbps: 8,
		Achieved: fmt.Sprintf("burst completes in %.1f ms", tr.Duration.Seconds()*1000),
		OK:       tr.Duration < 500*time.Millisecond,
	})
	// MEG: low volume, latency sensitive.
	rtt, err := tb.RTT(HostT3E600, HostT90)
	if err != nil {
		return nil, err
	}
	wanRTT, err := tb.RTT(HostT3E600, HostSP2)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AppRow{
		App: "MEG/pmusic (latency-bound)", RequiredMbps: 1,
		Achieved: fmt.Sprintf("RTT %.2f ms local, %.2f ms WAN", rtt.Seconds()*1000, wanRTT.Seconds()*1000),
		OK:       wanRTT < 10*time.Millisecond,
	})
	// Video: 270 Mbit/s D1 stream (drives the kernel directly, so it
	// always runs on a private testbed).
	vtb := New(tb.Cfg)
	onyx, err := vtb.Host(HostOnyx2)
	if err != nil {
		return nil, err
	}
	ws, err := vtb.Host(HostWSGMD)
	if err != nil {
		return nil, err
	}
	vres, err := video.Stream(vtb.Net, onyx, ws, video.StreamConfig{Frames: 25})
	if err != nil {
		return nil, err
	}
	rows = append(rows, AppRow{
		App: "multimedia (uncompressed D1 video)", RequiredMbps: 270,
		Achieved: fmt.Sprintf("%d/%d frames on time, peak jitter %.2f ms",
			vres.OnTime, vres.Frames, vres.PeakJitter.Seconds()*1000),
		OK: vres.OnTime == vres.Frames,
	})
	// fMRI: table-1 + figure-2 budget.
	model := fire.DefaultT3E600()
	st := fire.PaperStageTimes(model, 256)
	rows = append(rows, AppRow{
		App: "realtime fMRI (up to 5 computers + scanner)", RequiredMbps: 10,
		Achieved: fmt.Sprintf("end-to-end %.2f s at 256 PEs", st.TotalDelay()),
		OK:       st.TotalDelay() < 5,
	})
	// MetaCISPAR: COCOLIB interface exchange ("depends on the coupled
	// application") — a per-step boundary-field exchange must stay
	// far below a solver timestep.
	ifaceRTT, err := tb.RTT(HostT3E600, HostSP2)
	if err != nil {
		return nil, err
	}
	ifaceTr, err := tb.TCPTransfer(HostT3E600, HostSP2, 64<<10, tcpsim.Config{})
	if err != nil {
		return nil, err
	}
	rows = append(rows, AppRow{
		App: "MetaCISPAR (COCOLIB interface exchange)", RequiredMbps: 5,
		Achieved: fmt.Sprintf("64 KByte boundary field in %.2f ms (RTT %.2f ms)",
			ifaceTr.Duration.Seconds()*1000, ifaceRTT.Seconds()*1000),
		OK: ifaceTr.Duration < 100*time.Millisecond,
	})
	return rows, nil
}

// FormatSection3 renders the application table.
func FormatSection3(rows []AppRow) string {
	var sb strings.Builder
	sb.WriteString("A1: application communication requirements vs. the testbed\n")
	for _, r := range rows {
		status := "OK"
		if !r.OK {
			status = "INSUFFICIENT"
		}
		fmt.Fprintf(&sb, "  %-44s req %5.0f Mbit/s  %-44s [%s]\n", r.App, r.RequiredMbps, r.Achieved, status)
	}
	return sb.String()
}
