package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/cocolib"
	"repro/internal/fire"
	"repro/internal/groundwater"

	"repro/internal/climate"
)

// Concrete Report implementations for the registered scenarios. Each is
// a plain struct of the measurement record: Text renders the table the
// old Format* helpers produced, JSON marshals the record itself.

// Table1Report compares the calibrated T3E-600 model against the
// paper's printed Table 1.
type Table1Report struct {
	Model []fire.Table1Row
	Paper []fire.Table1Row
}

// Text implements Report.
func (r *Table1Report) Text() string {
	var sb strings.Builder
	sb.WriteString("T1: FIRE processing times on the Cray T3E-600, 64x64x16 image\n")
	sb.WriteString("      (model vs. paper; times in seconds)\n")
	sb.WriteString("  PEs   filter        motion        RVO            total          speedup\n")
	for i, m := range r.Model {
		var p fire.Table1Row
		if i < len(r.Paper) {
			p = r.Paper[i]
		}
		fmt.Fprintf(&sb, "  %3d   %5.3f/%5.2f   %5.3f/%5.2f   %7.2f/%7.2f  %7.2f/%7.2f  %6.1f/%6.1f\n",
			m.PEs, m.Filter, p.Filter, m.Motion, p.Motion, m.RVO, p.RVO, m.Total, p.Total,
			m.Speedup, p.Speedup)
	}
	return sb.String()
}

// JSON implements Report.
func (r *Table1Report) JSON() ([]byte, error) { return json.Marshal(r) }

// Figure1Report carries the section-2 path measurements.
type Figure1Report struct {
	Rows []Figure1Row
}

// Text implements Report.
func (r *Figure1Report) Text() string { return FormatFigure1(r.Rows) }

// JSON implements Report.
func (r *Figure1Report) JSON() ([]byte, error) { return json.Marshal(r) }

// Figure2Report carries the realtime-fMRI latency budget.
type Figure2Report struct {
	Figure2Result
}

// Text implements Report.
func (r *Figure2Report) Text() string { return FormatFigure2(r.Figure2Result) }

// JSON implements Report.
func (r *Figure2Report) JSON() ([]byte, error) { return json.Marshal(r) }

// Figure3Report carries the FIRE GUI overlay measurement.
type Figure3Report struct {
	Figure3Result
}

// Text implements Report.
func (r *Figure3Report) Text() string { return FormatFigure3(r.Figure3Result) }

// JSON implements Report.
func (r *Figure3Report) JSON() ([]byte, error) { return json.Marshal(r) }

// Figure4Report carries the 3-D visualization measurements.
type Figure4Report struct {
	Figure4Result
}

// Text implements Report.
func (r *Figure4Report) Text() string { return FormatFigure4(r.Figure4Result) }

// JSON implements Report.
func (r *Figure4Report) JSON() ([]byte, error) { return json.Marshal(r) }

// Section3Report carries the application-requirements table.
type Section3Report struct {
	Rows []AppRow
}

// Text implements Report.
func (r *Section3Report) Text() string { return FormatSection3(r.Rows) }

// JSON implements Report.
func (r *Section3Report) JSON() ([]byte, error) { return json.Marshal(r) }

// FMRIDataflowReport carries the fully derived five-computer fMRI
// dataflow timing.
type FMRIDataflowReport struct {
	Scenario FMRIScenario
	Result   FMRIScenarioResult
}

// Header is the section heading shared by every fmri-dataflow row
// (callers sweeping PE counts print it once, then Row per run).
func (r *FMRIDataflowReport) Header() string {
	return "D1: fully derived fMRI dataflow (DES over the testbed)\n"
}

// Row renders the measurement line without the heading.
func (r *FMRIDataflowReport) Row() string {
	return fmt.Sprintf("  %3d PEs, TR %.1f s: GUI delay %.2f s mean / %.2f s max, VR path %.2f s, wire %.0f ms/frame\n",
		r.Scenario.PEs, r.Scenario.TR, r.Result.MeanGUIDelay, r.Result.MaxGUIDelay,
		r.Result.MeanVRDelay, r.Result.WireSeconds*1000)
}

// Text implements Report.
func (r *FMRIDataflowReport) Text() string { return r.Header() + r.Row() }

// JSON implements Report.
func (r *FMRIDataflowReport) JSON() ([]byte, error) { return json.Marshal(r) }

// FMRISweepReport carries the fMRI dataflow DES evaluated at several
// T3E partition sizes (the fmri-pe-sweep scenario), one row per PE
// count in grid order.
type FMRISweepReport struct {
	Rows []FMRIDataflowReport
}

// Text implements Report.
func (r *FMRISweepReport) Text() string {
	var sb strings.Builder
	for i := range r.Rows {
		if i == 0 {
			sb.WriteString(r.Rows[i].Header())
		}
		sb.WriteString(r.Rows[i].Row())
	}
	return sb.String()
}

// JSON implements Report.
func (r *FMRISweepReport) JSON() ([]byte, error) { return json.Marshal(r) }

// UpgradeReport carries the OC-12 -> OC-48 upgrade-motivation
// measurements: aggregate flows and mixed video+bulk traffic on both
// backbone generations.
type UpgradeReport struct {
	Aggregate []AggregateRow
	Mixed     []MixedTrafficResult
}

// Text implements Report. Only sections with measurements are printed
// (the backbone-aggregate and mixed-traffic scenarios each fill one).
func (r *UpgradeReport) Text() string {
	var sb strings.Builder
	if len(r.Aggregate) > 0 {
		sb.WriteString("U1: backbone aggregate capacity (concurrent 622-attached flows)\n")
		for _, a := range r.Aggregate {
			fmt.Fprintf(&sb, "  %-6v x%d flows: %7.1f Mbit/s aggregate\n", a.Backbone, a.Flows, a.AggregateMbps)
		}
	}
	if len(r.Mixed) > 0 {
		sb.WriteString("U2: 270 Mbit/s D1 video sharing the backbone with bulk TCP\n")
		for _, m := range r.Mixed {
			fmt.Fprintf(&sb, "  %-6v video %2d/%2d frames on time (peak jitter %6.2f ms), bulk TCP %7.1f Mbit/s\n",
				m.Backbone, m.Video.OnTime, m.Video.Frames,
				m.Video.PeakJitter.Seconds()*1000, m.BulkMbps)
		}
	}
	return sb.String()
}

// JSON implements Report.
func (r *UpgradeReport) JSON() ([]byte, error) { return json.Marshal(r) }

// FutureWorkReport carries the forward-looking analyses.
type FutureWorkReport struct {
	FutureWorkResult
}

// Text implements Report.
func (r *FutureWorkReport) Text() string { return FormatFutureWork(r.FutureWorkResult) }

// JSON implements Report.
func (r *FutureWorkReport) JSON() ([]byte, error) { return json.Marshal(r) }

// networkLine is the line every coupled report ends on: what the run's
// messages cost on the simulated testbed, the figure -wan moves.
func networkLine(seconds float64, steps int) string {
	return fmt.Sprintf("  on the testbed network: %.3f ms of virtual time per coupling step, %.3f s in all (compute is charged none)\n",
		seconds*1000/float64(steps), seconds)
}

// ClimateReport carries the coupled ocean/atmosphere run.
type ClimateReport struct {
	Steps  int
	DtSecs float64
	Result climate.CoupledResult
}

// Text implements Report.
func (r *ClimateReport) Text() string {
	var sb strings.Builder
	sb.WriteString("C1: coupled climate (ocean-ice on 'T3E', atmosphere on 'SP2', CSM-style coupler)\n")
	fmt.Fprintf(&sb, "  coupled %d steps of %d s; %.2f MByte exchanged per step\n",
		r.Result.Steps, int(r.DtSecs), float64(r.Result.BytesPerExchange)/1e6)
	fmt.Fprintf(&sb, "  final mean SST %.2f K (range %.1f..%.1f), ice fraction %.3f\n",
		r.Result.FinalMeanSST, r.Result.MinSST, r.Result.MaxSST, r.Result.FinalIceFraction)
	sb.WriteString("  (the paper quotes up to 1 MByte in short bursts per timestep)\n")
	sb.WriteString(networkLine(r.Result.NetworkSeconds, r.Result.Steps))
	return sb.String()
}

// JSON implements Report.
func (r *ClimateReport) JSON() ([]byte, error) { return json.Marshal(r) }

// GroundwaterReport carries the TRACE/PARTRACE coupled run with its
// VAMPIR-style communication summary.
type GroundwaterReport struct {
	Result groundwater.CoupledResult
	// TraceSummary is the rendered mpitrace statistics (text-only;
	// the raw events are not part of the record).
	TraceSummary string
}

// Text implements Report.
func (r *GroundwaterReport) Text() string {
	var sb strings.Builder
	sb.WriteString("G1: groundwater TRACE (SP2) <-> PARTRACE (T3E) coupling\n")
	fmt.Fprintf(&sb, "  coupled run: %d steps, %.2f MByte field per step (%.1f MByte total)\n",
		r.Result.Steps, float64(r.Result.BytesPerStep)/1e6, float64(r.Result.TotalBytes)/1e6)
	fmt.Fprintf(&sb, "  TRACE solver: %d CG iterations total\n", r.Result.CGIterTotal)
	fmt.Fprintf(&sb, "  PARTRACE: %d particles broke through, plume front at %.1f cells\n",
		r.Result.Exited, r.Result.FinalMeanX)
	sb.WriteString("  (the paper quotes up to 30 MByte/s for this field transfer)\n")
	sb.WriteString(networkLine(r.Result.NetworkSeconds, r.Result.Steps))
	if r.TraceSummary != "" {
		sb.WriteString(r.TraceSummary)
	}
	return sb.String()
}

// JSON implements Report.
func (r *GroundwaterReport) JSON() ([]byte, error) { return json.Marshal(r) }

// FSIReport carries the MetaCISPAR COCOLIB coupled run.
type FSIReport struct {
	FluidNodes  int
	StructNodes int
	Result      cocolib.FSIResult
}

// Text implements Report.
func (r *FSIReport) Text() string {
	var sb strings.Builder
	sb.WriteString("M1: MetaCISPAR fluid-structure coupling through COCOLIB\n")
	fmt.Fprintf(&sb, "  FSI coupled run: %d exchanges, %.1f KByte moved across the interface\n",
		r.Result.Steps, float64(r.Result.BytesExchanged)/1024)
	fmt.Fprintf(&sb, "  panel reached static aeroelastic equilibrium: max deflection %.4f (residual %.1e)\n",
		r.Result.MaxDeflection, r.Result.TipResidual)
	fmt.Fprintf(&sb, "  (COCOLIB interpolates between the %d-node fluid and %d-node structure meshes)\n",
		r.FluidNodes, r.StructNodes)
	sb.WriteString(networkLine(r.Result.NetworkSeconds, r.Result.Steps))
	return sb.String()
}

// JSON implements Report.
func (r *FSIReport) JSON() ([]byte, error) { return json.Marshal(r) }

// MEGReport carries the pmusic dipole localisation and the
// metacomputing speedup argument.
type MEGReport struct {
	GridPoints int
	// TrueMM and BestMM are the synthetic and estimated dipole
	// positions in millimetres.
	TrueMM  [3]float64
	BestMM  [3]float64
	PeakVal float64
	ErrorMM float64
	// Speedups maps T3E partition size to the MPP+vector speedup over
	// MPP-only.
	Speedups []MEGSpeedup
}

// MEGSpeedup is one distributed-vs-MPP-only comparison point.
type MEGSpeedup struct {
	PEs     int
	Speedup float64
}

// Text implements Report.
func (r *MEGReport) Text() string {
	var sb strings.Builder
	sb.WriteString("E1: MEG pmusic dipole localisation (MUSIC scan on 4 MPI ranks)\n")
	fmt.Fprintf(&sb, "  scanned %d grid points; true dipole (%.0f, %.0f, %.0f) mm\n",
		r.GridPoints, r.TrueMM[0], r.TrueMM[1], r.TrueMM[2])
	fmt.Fprintf(&sb, "  MUSIC peak %.3f at (%.0f, %.0f, %.0f) mm — error %.1f mm\n",
		r.PeakVal, r.BestMM[0], r.BestMM[1], r.BestMM[2], r.ErrorMM)
	for _, s := range r.Speedups {
		fmt.Fprintf(&sb, "  distributed vs MPP-only speedup at %3d PEs: %.2fx\n", s.PEs, s.Speedup)
	}
	return sb.String()
}

// JSON implements Report.
func (r *MEGReport) JSON() ([]byte, error) { return json.Marshal(r) }

// VideoReport carries the D1 studio-video streaming runs across
// carrier generations.
type VideoReport struct {
	Rows []VideoRow
}

// VideoRow is one carrier's streaming outcome.
type VideoRow struct {
	Carrier     string
	PayloadMbps float64
	Frames      int
	OnTime      int
	LostPackets int
	PeakJitter  float64 // milliseconds
}

// Text implements Report.
func (r *VideoReport) Text() string {
	var sb strings.Builder
	sb.WriteString("V1: uncompressed 270 Mbit/s D1 studio video over ATM carriers\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-6s payload %6.1f Mbit/s: %2d/%2d frames on time, %d lost packets, peak jitter %6.2f ms\n",
			row.Carrier, row.PayloadMbps, row.OnTime, row.Frames, row.LostPackets, row.PeakJitter)
	}
	return sb.String()
}

// JSON implements Report.
func (r *VideoReport) JSON() ([]byte, error) { return json.Marshal(r) }

// RTSessionReport carries a realtime fMRI session over real loopback
// TCP sockets: scanner -> RT-server -> RT-client with motion correction
// and incremental correlation, plus the final rendered overlay.
type RTSessionReport struct {
	Scans           int
	ActivatedVoxels int
	PeakCorrelation float64
	// MaxShiftVoxels is the largest estimated subject motion over the
	// session, in voxels.
	MaxShiftVoxels float64
	// FitIterations are the motion fit's Gauss-Newton iterations, one
	// count per scan in arrival order.
	FitIterations []int
	// FitsAtMaxIter counts the scans whose fit stopped at its iteration
	// cap without converging.
	FitsAtMaxIter int
	PNGBytes      int
	// PNG is the rendered figure-3 overlay (excluded from JSON;
	// PNGBytes records its size).
	PNG []byte `json:"-"`
}

// Text implements Report.
func (r *RTSessionReport) Text() string {
	var sb strings.Builder
	sb.WriteString("R1: realtime fMRI session over the RT protocol (real TCP sockets)\n")
	fmt.Fprintf(&sb, "  %d scans analysed, %d voxels activated, peak r = %.3f\n",
		r.Scans, r.ActivatedVoxels, r.PeakCorrelation)
	fmt.Fprintf(&sb, "  peak estimated subject motion %.2f voxels; overlay rendered (%d PNG bytes)\n",
		r.MaxShiftVoxels, r.PNGBytes)
	iters := 0
	for _, n := range r.FitIterations {
		iters += n
	}
	fmt.Fprintf(&sb, "  motion fits: %d Gauss-Newton iterations over %d scans, %d stopped at the iteration cap\n",
		iters, len(r.FitIterations), r.FitsAtMaxIter)
	return sb.String()
}

// JSON implements Report.
func (r *RTSessionReport) JSON() ([]byte, error) { return json.Marshal(r) }
