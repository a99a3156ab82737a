// Package core models the Gigabit Testbed West itself: the Figure-1
// topology joining the Research Centre Jülich and the GMD in Sankt
// Augustin over a 2.4 Gbit/s ATM/SDH link (OC-12 in the first year),
// the supercomputers attached through HiPPI-ATM gateway workstations,
// the 622/155 Mbit/s host attachments, the section-5 extension sites,
// and a simple co-allocation facility for distributed sessions (the
// "simultaneous resource allocation" problem the conclusions raise).
//
// The testbed is the substrate every experiment driver in this
// repository runs on; the root package gtw re-exports it as the public
// API.
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/atm"
	"repro/internal/hippi"
	"repro/internal/machine"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// ATMFramer frames IP packets as Classical IP over AAL5/ATM.
type ATMFramer struct{}

// WireSize implements netsim.Framer.
func (ATMFramer) WireSize(n int) int { return atm.CLIPWireBytes(n) }

// Name implements netsim.Framer.
func (ATMFramer) Name() string { return "atm-clip" }

// HiPPIFramer charges HiPPI burst framing and connection overhead by
// converting the channel occupancy back into equivalent wire bytes at
// the 800 Mbit/s signalling rate.
type HiPPIFramer struct{}

// WireSize implements netsim.Framer.
func (HiPPIFramer) WireSize(n int) int {
	d := hippi.TransferTime(n)
	return int(d.Seconds() * hippi.SignallingRate / 8)
}

// Name implements netsim.Framer.
func (HiPPIFramer) Name() string { return "hippi" }

// Config selects the testbed generation.
type Config struct {
	// WAN is the backbone carrier: atm.OC12 for the 1997/98 setup,
	// atm.OC48 after the August 1998 upgrade (the default).
	WAN atm.OC
	// Extensions adds the section-5 sites (DLR, University of
	// Cologne, University of Bonn).
	Extensions bool
}

// Host names of the standard topology.
const (
	HostT3E600     = "cray-t3e-600"
	HostT3E1200    = "cray-t3e-1200"
	HostT90        = "cray-t90"
	HostGatewayFZJ = "sgi-o200-gw"
	HostUltra30    = "sun-ultra30-gw"
	HostWSJuelich  = "ws-juelich"
	HostSwitchFZJ  = "asx4000-fzj"

	HostSP2        = "ibm-sp2"
	HostOnyx2      = "sgi-onyx2"
	HostGatewayGMD = "sun-e5000-gw"
	HostWSGMD      = "ws-gmd"
	HostSwitchGMD  = "asx4000-gmd"

	// Additional 622 Mbit/s workstations ("several workstations via
	// 622 or 155 Mbit/s ATM interfaces", Figure 1) used for aggregate
	// backbone experiments, plus one 155 Mbit/s attach per site.
	HostWS2Juelich   = "ws2-juelich"
	HostWS3Juelich   = "ws3-juelich"
	HostWS4Juelich   = "ws4-juelich"
	HostWS2GMD       = "ws2-gmd"
	HostWS3GMD       = "ws3-gmd"
	HostWS4GMD       = "ws4-gmd"
	HostWS155Juelich = "ws155-juelich"
	HostWS155GMD     = "ws155-gmd"

	HostDLR      = "dlr"
	HostUniKoeln = "uni-koeln"
	HostUniBonn  = "uni-bonn"
)

// Testbed is a constructed Gigabit Testbed West instance.
//
// A Testbed is safe for concurrent use: the co-allocation map is
// guarded by allocMu, and every operation that advances the simulation
// kernel (TCPTransfer, RTT) serialises on simMu. Callers
// that share one therefore interleave their transfers on it, but each
// transfer still runs on an otherwise idle simulated network;
// in-simulator bandwidth contention between two flows only happens
// when one driver starts both (see BackboneAggregate, MixedTraffic).
// Code that reaches into K or Net directly must have the testbed to
// itself.
type Testbed struct {
	Cfg      Config
	K        *sim.Kernel
	Net      *netsim.Network
	hosts    map[string]*netsim.Node
	machines map[string]machine.Spec
	alloc    map[string]string // host -> session owner

	allocMu sync.Mutex // guards alloc
	simMu   sync.Mutex // serialises kernel access
}

// propDelayWAN is the one-way propagation delay of the ~100 km
// Jülich - Sankt Augustin fiber (~5 us/km).
const propDelayWAN = 500 * time.Microsecond

// lanDelay is the one-way delay of campus links.
const lanDelay = 10 * time.Microsecond

// New builds the testbed.
func New(cfg Config) *Testbed {
	if cfg.WAN == 0 {
		cfg.WAN = atm.OC48
	}
	k := sim.NewKernel()
	n := netsim.New(k)
	tb := &Testbed{
		Cfg: cfg, K: k, Net: n,
		hosts:    make(map[string]*netsim.Node),
		machines: make(map[string]machine.Spec),
		alloc:    make(map[string]string),
	}
	add := func(name string, spec *machine.Spec, opts ...func(*netsim.Node)) *netsim.Node {
		nd := n.AddNode(name, opts...)
		tb.hosts[name] = nd
		if spec != nil {
			tb.machines[name] = *spec
		}
		return nd
	}
	gw := hippi.DefaultGateway("gw")

	// --- Jülich ---
	swFZJ := add(HostSwitchFZJ, nil, netsim.WithForwardCost(5*time.Microsecond, 16e9))
	t3e600Spec := machine.CrayT3E600()
	t3e1200Spec := machine.CrayT3E1200()
	t90Spec := machine.CrayT90()
	// The Cray hosts' TCP/IP stacks sustain ~435 Mbit/s (the ">430
	// Mbit/s within the local Cray complex" measurement).
	t3e600 := add(HostT3E600, &t3e600Spec, netsim.WithHostBps(435e6))
	t3e1200 := add(HostT3E1200, &t3e1200Spec, netsim.WithHostBps(435e6))
	t90 := add(HostT90, &t90Spec, netsim.WithHostBps(435e6))
	gwFZJ := add(HostGatewayFZJ, nil, netsim.WithForwardCost(gw.PerPacket, gw.CopyBps))
	ultra30 := add(HostUltra30, nil, netsim.WithForwardCost(gw.PerPacket, gw.CopyBps))
	wsFZJ := add(HostWSJuelich, nil)

	hippiLink := func(a, b *netsim.Node) {
		n.Connect(a, b, netsim.LinkConfig{
			Name: a.Name + "-" + b.Name, Bps: hippi.SignallingRate,
			Delay: lanDelay, MTU: atm.MaxCLIPMTU, Framer: HiPPIFramer{},
			QueueBytes: 32 << 20,
		})
	}
	atm622 := func(a, b *netsim.Node) {
		n.Connect(a, b, netsim.LinkConfig{
			Name: a.Name + "-" + b.Name, Bps: atm.OC12.PayloadRate(),
			Delay: lanDelay, MTU: atm.MaxCLIPMTU, Framer: ATMFramer{},
			QueueBytes: 32 << 20,
		})
	}
	// Local Cray HiPPI complex: the three Crays share a HiPPI fabric;
	// the gateways bridge it to ATM.
	hippiLink(t3e600, t3e1200)
	hippiLink(t3e600, gwFZJ)
	hippiLink(t3e1200, ultra30)
	hippiLink(t90, gwFZJ)
	atm622(gwFZJ, swFZJ)
	atm622(ultra30, swFZJ)
	atm622(wsFZJ, swFZJ)

	// --- Sankt Augustin ---
	swGMD := add(HostSwitchGMD, nil, netsim.WithForwardCost(5*time.Microsecond, 16e9))
	sp2Spec := machine.IBMSP2()
	onyxSpec := machine.SGIOnyx2()
	sp2 := add(HostSP2, &sp2Spec, netsim.WithHostBps(sp2Spec.IOBps))
	onyx2 := add(HostOnyx2, &onyxSpec)
	gwGMD := add(HostGatewayGMD, nil, netsim.WithForwardCost(gw.PerPacket, gw.CopyBps))
	wsGMD := add(HostWSGMD, nil)
	hippiLink(sp2, gwGMD)
	atm622(gwGMD, swGMD)
	atm622(onyx2, swGMD)
	atm622(wsGMD, swGMD)

	// Additional workstations on both sides.
	atm155 := func(a, b *netsim.Node) {
		n.Connect(a, b, netsim.LinkConfig{
			Name: a.Name + "-" + b.Name, Bps: atm.OC3.PayloadRate(),
			Delay: lanDelay, MTU: atm.DefaultCLIPMTU, Framer: ATMFramer{},
			QueueBytes: 16 << 20,
		})
	}
	for _, name := range []string{HostWS2Juelich, HostWS3Juelich, HostWS4Juelich} {
		atm622(add(name, nil), swFZJ)
	}
	for _, name := range []string{HostWS2GMD, HostWS3GMD, HostWS4GMD} {
		atm622(add(name, nil), swGMD)
	}
	atm155(add(HostWS155Juelich, nil), swFZJ)
	atm155(add(HostWS155GMD, nil), swGMD)

	// --- WAN backbone ---
	n.Connect(swFZJ, swGMD, netsim.LinkConfig{
		Name: "gtw-backbone", Bps: cfg.WAN.PayloadRate(),
		Delay: propDelayWAN, MTU: atm.MaxCLIPMTU, Framer: ATMFramer{},
		QueueBytes: 64 << 20,
	})

	// --- Extensions (section 5) ---
	if cfg.Extensions {
		dlr := add(HostDLR, nil)
		koeln := add(HostUniKoeln, nil)
		bonn := add(HostUniBonn, nil)
		// Dark fibre DLR / Cologne to the GMD.
		atm622(dlr, swGMD)
		atm622(koeln, swGMD)
		// New 622 Mbit/s ATM link University of Bonn - GMD.
		atm622(bonn, swGMD)
	}

	n.ComputeRoutes()
	return tb
}

// Host resolves a host name to its network node.
func (tb *Testbed) Host(name string) (netsim.NodeID, error) {
	nd, ok := tb.hosts[name]
	if !ok {
		return 0, fmt.Errorf("core: unknown host %q", name)
	}
	return nd.ID, nil
}

// Machine reports the performance model of a host, if it is a modeled
// supercomputer.
func (tb *Testbed) Machine(name string) (machine.Spec, bool) {
	s, ok := tb.machines[name]
	return s, ok
}

// TCPTransfer runs a simulated TCP bulk transfer between two named
// hosts and reports the result.
func (tb *Testbed) TCPTransfer(src, dst string, nbytes int64, cfg tcpsim.Config) (tcpsim.Result, error) {
	a, err := tb.Host(src)
	if err != nil {
		return tcpsim.Result{}, err
	}
	b, err := tb.Host(dst)
	if err != nil {
		return tcpsim.Result{}, err
	}
	tb.simMu.Lock()
	defer tb.simMu.Unlock()
	return tcpsim.Transfer(tb.Net, a, b, nbytes, cfg)
}

// RTT measures the small-message round-trip time between two hosts.
func (tb *Testbed) RTT(src, dst string) (time.Duration, error) {
	a, err := tb.Host(src)
	if err != nil {
		return 0, err
	}
	b, err := tb.Host(dst)
	if err != nil {
		return 0, err
	}
	tb.simMu.Lock()
	defer tb.simMu.Unlock()
	return netsim.Ping(tb.Net, a, b, 64, 64), nil
}

// Reserve claims exclusive use of the named hosts for a session — the
// co-allocation every distributed experiment needed (up to 5 computers
// and an MRI scanner simultaneously for the fMRI project). It either
// reserves all hosts or none.
func (tb *Testbed) Reserve(session string, hosts ...string) error {
	if session == "" {
		return fmt.Errorf("core: empty session name")
	}
	tb.allocMu.Lock()
	defer tb.allocMu.Unlock()
	for _, h := range hosts {
		if _, ok := tb.hosts[h]; !ok {
			return fmt.Errorf("core: unknown host %q", h)
		}
		if owner, busy := tb.alloc[h]; busy && owner != session {
			return fmt.Errorf("core: host %q already allocated to session %q", h, owner)
		}
	}
	for _, h := range hosts {
		tb.alloc[h] = session
	}
	return nil
}

// Release frees every host held by the session.
func (tb *Testbed) Release(session string) {
	tb.allocMu.Lock()
	defer tb.allocMu.Unlock()
	for h, owner := range tb.alloc {
		if owner == session {
			delete(tb.alloc, h)
		}
	}
}
