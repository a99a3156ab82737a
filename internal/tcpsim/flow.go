package tcpsim

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/netsim"
)

// Flow is a handle on an in-progress transfer, allowing several
// transfers to share the network concurrently (e.g. filling the OC-48
// backbone with parallel streams, or running bulk data against a video
// stream). Start schedules the flow; WaitAll drives the kernel.
type Flow struct {
	s *sender
}

// flowFree pools sender records (each carrying its Flow handle and
// send-timestamp ring) across transfers, so scenarios that open many
// short flows pay no per-flow allocation in steady state. The pool is
// shared by every sweep shard, and shards are goroutines; a mutex
// (rather than sync.Pool) keeps the steady-state alloc count
// deterministic.
var flowFree struct {
	sync.Mutex
	free []*sender
}

// getSender returns a reset sender from the pool (keeping its timestamp
// ring for reuse) or a fresh one.
func getSender() *sender {
	flowFree.Lock()
	var s *sender
	if n := len(flowFree.free); n > 0 {
		s = flowFree.free[n-1]
		flowFree.free[n-1] = nil
		flowFree.free = flowFree.free[:n-1]
	}
	flowFree.Unlock()
	if s == nil {
		s = &sender{}
	}
	// Keep the buffers: the timestamp ring and the snapshots'.
	ring, a, b := s.sendTS, s.ff.a, s.ff.b
	*s = sender{sendTS: ring}
	s.ff.a, s.ff.b = a, b
	s.handle = Flow{s: s}
	s.dataH = dataPath{s}
	s.ackH = ackPath{s}
	return s
}

// Release returns the flow's state to the package pool. Call it only
// after the flow has completed (or errored) and its kernel has run dry
// — e.g. after WaitAll — and never use the handle again afterwards: the
// state will be reused by a future Start. Releasing is optional (an
// unreleased flow is simply garbage-collected) and idempotent.
func (f *Flow) Release() {
	s := f.s
	if s == nil {
		return
	}
	flowFree.Lock()
	defer flowFree.Unlock()
	// The released check lives under the pool lock so concurrent
	// Release calls on one flow cannot both insert it.
	if s.released {
		return
	}
	s.released = true
	flowFree.free = append(flowFree.free, s)
}

// Start schedules a TCP transfer without running the kernel. A
// zero-byte transfer completes immediately; a negative size is an
// error. (Without the guard, a flow with nothing to send would never
// see an ACK and WaitAll would stall.)
func Start(n *netsim.Network, src, dst netsim.NodeID, nbytes int64, cfg Config) (*Flow, error) {
	if nbytes < 0 {
		return nil, fmt.Errorf("tcpsim: negative transfer size %d", nbytes)
	}
	cfg.fill()
	mss := cfg.MSS
	if mss == 0 {
		mtu, err := n.PathMTU(src, dst)
		if err != nil {
			return nil, err
		}
		mss = mtu - HeaderBytes
	}
	if mss <= 0 {
		return nil, fmt.Errorf("tcpsim: non-positive MSS %d", mss)
	}
	// The send-timestamp ring needs one slot per outstanding segment;
	// the window admits at most WindowBytes/mss of them (plus one for
	// the sub-MSS clamp), so size it once here, to a power of two, and
	// never touch a map or clear() on the data path again.
	ringSize := 4
	for ringSize < cfg.WindowBytes/mss+2 {
		ringSize *= 2
	}
	s := getSender()
	s.n, s.src, s.dst, s.cfg, s.total = n, src, dst, cfg, nbytes
	s.mss = mss
	s.cwnd = float64(cfg.InitialCwndSegs * mss)
	s.ssthresh = float64(cfg.WindowBytes)
	s.ff.wait = 1
	s.start = n.K.Now()
	if cap(s.sendTS) >= ringSize {
		s.sendTS = s.sendTS[:ringSize]
	} else {
		s.sendTS = make([]tsEntry, ringSize)
	}
	for i := range s.sendTS {
		s.sendTS[i] = tsEntry{seq: -1}
	}
	if nbytes == 0 {
		s.done = true
		s.finish = s.start
		return &s.handle, nil
	}
	n.K.AtFunc(n.K.Now(), startPump, unsafe.Pointer(s), nil)
	return &s.handle, nil
}

// startPump is the closure-free initial-pump trampoline.
func startPump(a0, _ unsafe.Pointer) { (*sender)(a0).pump() }

// Result returns the transfer outcome. It errors if the flow has not
// completed.
func (f *Flow) Result() (Result, error) {
	if f.s.err != nil {
		return Result{}, f.s.err
	}
	if !f.s.done {
		return Result{}, fmt.Errorf("tcpsim: flow still in progress (%d/%d bytes)", f.s.ackSeq, f.s.total)
	}
	dur := f.s.finish.Sub(f.s.start)
	res := Result{
		Bytes: f.s.total, Duration: dur, MSS: f.s.mss,
		Retransmits: f.s.rtx, SRTT: f.s.srtt,
	}
	if dur > 0 {
		res.ThroughputBps = float64(f.s.total) * 8 / dur.Seconds()
	}
	return res, nil
}

// SkippedPeriods reports the one-ACK periods the flow's fast-forward
// skipped: a jump over k periods of p ACKs counts k×p.
//
//gtwvet:ignore reach reference: the fast-forward tests pin which transfers jump by it, and core's Figure-1 probe benchmarks report it as skipped_periods/op
func (f *Flow) SkippedPeriods() int64 { return f.s.ff.skipped }

// WaitAll runs the kernel until every flow has completed (or one
// stalls with no pending events).
func WaitAll(n *netsim.Network, flows ...*Flow) error {
	for {
		n.Run()
		pending := 0
		for _, f := range flows {
			if f.s.err != nil {
				return f.s.err
			}
			if !f.s.done {
				pending++
			}
		}
		if pending == 0 {
			return nil
		}
		if n.Pending() == 0 {
			return fmt.Errorf("tcpsim: %d flows stalled with no pending events", pending)
		}
	}
}
