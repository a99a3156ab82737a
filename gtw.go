// Package gtw is the public API of this reproduction of
// "Distributed Applications in a German Gigabit WAN" (Eickermann et
// al., HPDC 1999): a simulation of the Gigabit Testbed West — the
// 2.4 Gbit/s ATM/SDH wide-area testbed between Research Centre Jülich
// and GMD Sankt Augustin — together with working reimplementations of
// the distributed applications that ran on it.
//
// Every experiment — the paper's tables and figures as well as the
// section-3 application workloads — is a registered Scenario with a
// uniform Run signature and Report result, executed by one engine.
//
// Quickstart — run one scenario:
//
//	rep, err := gtw.Run(ctx, "figure2-endtoend", gtw.WithPEs(256), gtw.WithFrames(30))
//	if err != nil { ... }
//	fmt.Print(rep.Text())      // the human-readable table
//	b, _ := rep.JSON()         // the measurement record
//
// Run many concurrently, each on a fresh testbed:
//
//	results, err := gtw.RunAll(ctx, nil) // nil = every registered scenario
//	for _, r := range results {
//		fmt.Printf("%-24s %8s err=%v\n", r.Name, r.Elapsed.Round(time.Millisecond), r.Err)
//	}
//
// Adding a workload is a one-file exercise:
//
//	gtw.MustRegister(gtw.NewScenario("my-workload", "what it measures",
//		func(ctx context.Context, tb *gtw.Testbed, opts gtw.Options) (gtw.Report, error) {
//			res, err := tb.TCPTransfer(gtw.HostT3E600, gtw.HostSP2, 64<<20, gtw.TCPConfig{})
//			...
//		}))
//
// The testbed itself (topology, TCP transfers, co-allocation) remains
// directly usable:
//
//	tb := gtw.NewTestbed(gtw.Config{})
//	res, err := tb.TCPTransfer(gtw.HostT3E600, gtw.HostSP2, 64<<20, gtw.TCPConfig{})
//	fmt.Println(res) // ~260 Mbit/s, as measured in 1999
//
// The subsystems live in internal/ packages:
//
//	internal/sim         discrete-event simulation kernel
//	internal/netsim      packet-level network simulator
//	internal/atm         ATM/AAL5/SDH framing arithmetic
//	internal/hippi       HiPPI channels and HiPPI-ATM gateways
//	internal/tcpsim      TCP throughput model
//	internal/mpi         metacomputing MPI (MPI-2 subset): ranks are kernel
//	                     processes, cross-host messages cross the netsim
//	                     network their hosts sit on, in virtual time
//	internal/mpitrace    VAMPIR-style tracing of that virtual time
//	internal/machine     supercomputer performance models
//	internal/fire        FIRE fMRI analysis (filters, motion, RVO, ...)
//	internal/mri         synthetic MRI scanner
//	internal/meg         pmusic / MUSIC dipole analysis
//	internal/groundwater TRACE/PARTRACE coupling
//	internal/climate     coupled ocean/atmosphere + flux coupler
//	internal/cocolib     COCOLIB fluid-structure coupling (MetaCISPAR)
//	internal/video       D1 studio video over ATM
//	internal/viz         2-D overlay, 3-D merge, workbench streaming
//	internal/core        the testbed topology, scenarios and run engine
//
// See EXPERIMENTS.md for the paper-vs-measured record, cmd/gtwrun for
// the CLI that lists and runs any registered scenario (`gtwrun -flows 4
// table1-model figure1-throughput ...` prints the paper's tables in
// order), and bench/ for the end-to-end and per-layer benchmark.
package gtw

import (
	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/fire"
	"repro/internal/machine"
	"repro/internal/tcpsim"
)

// Config selects the testbed generation (OC-12 vs OC-48 backbone,
// extension sites).
type Config = core.Config

// Testbed is the simulated Gigabit Testbed West. It is safe for
// concurrent use: co-allocation is guarded and simulation access is
// serialised internally.
type Testbed = core.Testbed

// TCPConfig tunes simulated TCP transfers.
type TCPConfig = tcpsim.Config

// TCPResult reports a transfer outcome.
type TCPResult = tcpsim.Result

// MachineSpec is the performance model of a simulated supercomputer.
type MachineSpec = machine.Spec

// NewTestbed builds the Figure-1 topology.
func NewTestbed(cfg Config) *Testbed { return core.New(cfg) }

// Host names of the standard topology.
const (
	HostT3E600     = core.HostT3E600
	HostT3E1200    = core.HostT3E1200
	HostT90        = core.HostT90
	HostSP2        = core.HostSP2
	HostOnyx2      = core.HostOnyx2
	HostWSJuelich  = core.HostWSJuelich
	HostWSGMD      = core.HostWSGMD
	HostGatewayFZJ = core.HostGatewayFZJ
	HostGatewayGMD = core.HostGatewayGMD
	HostDLR        = core.HostDLR
	HostUniKoeln   = core.HostUniKoeln
	HostUniBonn    = core.HostUniBonn
)

// OC selects a SONET/SDH carrier level for experiment parameters.
type OC = atm.OC

// Carrier levels.
const (
	OC3  = atm.OC3
	OC12 = atm.OC12
	OC48 = atm.OC48
)

// Table1Row is one row of the paper's Table 1.
type Table1Row = fire.Table1Row

// PaperTable1 returns Table 1 exactly as printed in the paper.
func PaperTable1() []Table1Row { return fire.PaperTable1 }

// Figure1Row is one testbed path measurement.
type Figure1Row = core.Figure1Row
