package core

import "sync"

// PDESAggregate is the process-wide sum of PDES synchronization
// counters over every partitioned testbed run so far: how many rounds
// the kernel groups turned, how many null messages (bound broadcasts)
// they exchanged, and how the fired events split across kernel indices.
// It is what gtwrun -kernels prints as its pdes: line, and it is
// deliberately outside report bytes — kernel counts and sync costs are
// execution policy.
type PDESAggregate struct {
	// Flushes counts testbed flushes that carried new activity —
	// roughly "partitioned simulation phases recorded".
	Flushes int64
	// Rounds and NullMessages sum pdes.Stats across testbeds.
	Rounds       int64
	NullMessages int64
	// KernelEvents[i] sums events fired by kernel index i across
	// testbeds (testbeds with fewer kernels contribute to the low
	// indices). The spread is the load-balance picture.
	KernelEvents []int64
}

var (
	pdesMu  sync.Mutex
	pdesAgg PDESAggregate
)

// PDESSnapshot returns a copy of the process-wide PDES aggregate.
func PDESSnapshot() PDESAggregate {
	pdesMu.Lock()
	defer pdesMu.Unlock()
	out := pdesAgg
	out.KernelEvents = append([]int64(nil), pdesAgg.KernelEvents...)
	return out
}

// flushPDES folds the testbed's PDES counter growth since the last
// flush into the process-wide aggregate. Safe on any testbed (a no-op
// when unpartitioned); called wherever a simulation phase completes — a
// grid point, a wrapped scenario run, a driver-built testbed going out
// of scope. Takes simMu so the network is quiescent while the counters
// are read.
func (tb *Testbed) flushPDES() {
	if tb == nil || tb.Net.Kernels() <= 1 {
		return
	}
	tb.simMu.Lock()
	s := tb.Net.SyncStats()
	prev := tb.pdesPrev
	tb.pdesPrev = s
	tb.simMu.Unlock()

	dRounds := s.Rounds - prev.Rounds
	dNull := s.NullMessages - prev.NullMessages
	changed := dRounds != 0 || dNull != 0
	dEvents := make([]int64, len(s.Events))
	for i, v := range s.Events {
		if i < len(prev.Events) {
			v -= prev.Events[i]
		}
		dEvents[i] = v
		changed = changed || v != 0
	}
	if !changed {
		return
	}

	pdesMu.Lock()
	defer pdesMu.Unlock()
	pdesAgg.Flushes++
	pdesAgg.Rounds += dRounds
	pdesAgg.NullMessages += dNull
	for len(pdesAgg.KernelEvents) < len(dEvents) {
		pdesAgg.KernelEvents = append(pdesAgg.KernelEvents, 0)
	}
	for i, v := range dEvents {
		pdesAgg.KernelEvents[i] += v
	}
}
