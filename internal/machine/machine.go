// Package machine describes the computers attached to the Gigabit
// Testbed West (section 1 of the paper) as parameterized performance
// models: peak and sustained per-PE compute rates, internal network
// characteristics, and the host I/O limits that shaped the measured WAN
// throughput (the SP2's microchannel being the canonical example).
package machine

import (
	"fmt"
	"time"
)

// Kind classifies an architecture.
type Kind int

// Architectures present in the testbed.
const (
	MPP Kind = iota // massively parallel (T3E, SP2)
	Vector
	SMP
	Workstation
)

func (k Kind) String() string {
	switch k {
	case MPP:
		return "MPP"
	case Vector:
		return "vector"
	case SMP:
		return "SMP"
	case Workstation:
		return "workstation"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Spec is a machine performance model.
type Spec struct {
	Name string
	Kind Kind
	// PEs is the number of processing elements.
	PEs int
	// SustainedFlops is the realistic per-PE sustained rate (flop/s)
	// on the workloads of interest, not the peak.
	SustainedFlops float64
	// NetLatency is the internal network's point-to-point latency.
	NetLatency time.Duration
	// NetBps is the internal per-link bandwidth in bit/s.
	NetBps float64
	// IOBps caps external network I/O in bit/s (0 = not the
	// bottleneck).
	IOBps float64
}

// Testbed machines (values representative of the 1999 installations).
func CrayT3E600() Spec {
	return Spec{Name: "cray-t3e-600", Kind: MPP, PEs: 512,
		SustainedFlops: 43e6, NetLatency: 2 * time.Microsecond, NetBps: 2.4e9}
}

func CrayT3E1200() Spec {
	return Spec{Name: "cray-t3e-1200", Kind: MPP, PEs: 512,
		SustainedFlops: 86e6, NetLatency: 2 * time.Microsecond, NetBps: 2.4e9}
}

func CrayT90() Spec {
	return Spec{Name: "cray-t90", Kind: Vector, PEs: 10,
		SustainedFlops: 900e6, NetLatency: time.Microsecond, NetBps: 8e9}
}

// IBMSP2 models the microchannel-based SP nodes whose I/O system limited
// the WAN throughput to ~260 Mbit/s (section 2).
func IBMSP2() Spec {
	return Spec{Name: "ibm-sp2", Kind: MPP, PEs: 32,
		SustainedFlops: 60e6, NetLatency: 30 * time.Microsecond, NetBps: 320e6,
		IOBps: 264e6}
}

func SGIOnyx2() Spec {
	return Spec{Name: "sgi-onyx2", Kind: SMP, PEs: 12,
		SustainedFlops: 120e6, NetLatency: time.Microsecond, NetBps: 6.2e9}
}

// ComputeTime reports the modeled wall time for the given total flops
// spread perfectly over p PEs (capped at the machine size).
func (s Spec) ComputeTime(flops float64, p int) time.Duration {
	if p < 1 {
		p = 1
	}
	if p > s.PEs {
		p = s.PEs
	}
	sec := flops / (s.SustainedFlops * float64(p))
	return time.Duration(sec * 1e9)
}
