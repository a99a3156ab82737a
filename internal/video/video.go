// Package video reimplements the "Multimedia in a Gigabit-WAN" project:
// transfer of studio-quality digital video over ATM. The reference
// stream is uncompressed D1 (CCIR-601/SDI): 27 MHz sampling, 10-bit
// 4:2:2 -> a constant 270 Mbit/s, carried on a CBR virtual circuit. The
// package provides the stream arithmetic and a packet-level streaming
// experiment over the simulated testbed with jitter-buffer accounting.
package video

import (
	"fmt"
	"time"
	"unsafe"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// CCIR-601 / D1 constants.
const (
	// D1Bps is the serial digital interface rate in bit/s.
	D1Bps = 270e6
	// FrameRate is PAL: 25 frames/s.
	FrameRate = 25
	// FrameBits is the per-frame payload of the 270 Mbit/s stream.
	FrameBits = D1Bps / FrameRate
	// FrameBytes is FrameBits in bytes (1.35 MByte).
	FrameBytes = int(FrameBits / 8)
	// FrameInterval is the frame period.
	FrameInterval = time.Second / FrameRate
)

// StreamConfig configures a streaming experiment.
type StreamConfig struct {
	// Frames is the number of frames to stream.
	Frames int
	// MTU is the packetization size (network-layer bytes).
	MTU int
	// TargetDelay is the playout deadline relative to the frame's
	// nominal generation time (the jitter buffer depth).
	TargetDelay time.Duration
}

// StreamResult summarizes reception quality.
type StreamResult struct {
	Frames      int
	OnTime      int
	Late        int
	LostPackets int
	// MeanDelay is the mean frame completion delay relative to
	// generation.
	MeanDelay time.Duration
	// PeakJitter is the worst absolute deviation of inter-frame
	// completion spacing from the nominal 40 ms.
	PeakJitter time.Duration
}

// Stream plays a D1 stream from src to dst over the simulated network:
// frames are paced at 25/s, each packetized into MTU-sized packets
// emitted CBR-evenly across the frame interval (the ATM forum CBR
// shaping discipline). It runs the kernel to completion.
func Stream(n *netsim.Network, src, dst netsim.NodeID, cfg StreamConfig) (StreamResult, error) {
	if cfg.Frames <= 0 {
		return StreamResult{}, fmt.Errorf("video: need frames > 0")
	}
	if cfg.MTU <= 0 {
		cfg.MTU = 9180
	}
	if cfg.TargetDelay == 0 {
		cfg.TargetDelay = 80 * time.Millisecond
	}
	pktsPerFrame := (FrameBytes + cfg.MTU - 1) / cfg.MTU
	spacing := FrameInterval / time.Duration(pktsPerFrame)

	st := &stream{n: n, src: src, dst: dst, perFrame: pktsPerFrame, frames: make([]frameState, cfg.Frames),
		mtu: cfg.MTU, spacing: spacing, total: cfg.Frames * pktsPerFrame}
	// Every packet's send is keyed now, in order — packet i's key is
	// (st.at(i), first+i) — but only the next one to send is an event:
	// each send materializes its successor's key, so the stream keeps
	// one event pending instead of one per packet and fires in the same
	// order.
	st.first = n.K.Reserve()
	for i := 1; i < st.total; i++ {
		n.K.Reserve()
	}
	n.K.Materialize(st.at(0), st.first, sendStreamPacket, unsafe.Pointer(st), nil)
	n.Run()

	var res StreamResult
	res.Frames = cfg.Frames
	res.LostPackets = st.lost

	var sumDelay time.Duration
	completed := 0
	var prevComplete sim.Time
	for f := range st.frames {
		fs := &st.frames[f]
		gen := sim.Time(f+1) * sim.Time(FrameInterval) // frame fully generated
		if fs.received < pktsPerFrame {
			res.Late++ // incomplete = unplayable
			continue
		}
		completed++
		delay := fs.complete.Sub(gen)
		sumDelay += delay
		if delay <= cfg.TargetDelay {
			res.OnTime++
		} else {
			res.Late++
		}
		if completed > 1 {
			gap := fs.complete.Sub(prevComplete) - FrameInterval
			if gap < 0 {
				gap = -gap
			}
			if gap > res.PeakJitter {
				res.PeakJitter = gap
			}
		}
		prevComplete = fs.complete
	}
	if completed > 0 {
		res.MeanDelay = sumDelay / time.Duration(completed)
	}
	return res, nil
}

// stream is one Stream run's state: the handler of its pooled packets,
// each of which carries its frame number in Seq.
type stream struct {
	n        *netsim.Network
	src, dst netsim.NodeID
	perFrame int
	frames   []frameState
	lost     int

	// Packet i is packet i%perFrame of frame i/perFrame. first is the
	// seq of packet 0's key, next the packet whose send is pending.
	mtu         int
	spacing     time.Duration
	total, next int
	first       uint64
}

// at is the time packet i is sent: its frame's start plus its spacing.
func (st *stream) at(i int) sim.Time {
	return sim.Time(i/st.perFrame)*sim.Time(FrameInterval) + sim.Time(i%st.perFrame)*sim.Time(st.spacing)
}

// bytes is packet i's size: the MTU, or what the frame has left.
func (st *stream) bytes(i int) int {
	if i%st.perFrame == st.perFrame-1 {
		return FrameBytes - (st.perFrame-1)*st.mtu
	}
	return st.mtu
}

type frameState struct {
	received int
	complete sim.Time
}

// sendStreamPacket is the closure-free send event of the stream's next
// packet (a0 is the stream); it materializes the one after.
func sendStreamPacket(a0, _ unsafe.Pointer) {
	st := (*stream)(a0)
	i := st.next
	if st.next++; st.next < st.total {
		st.n.K.Materialize(st.at(st.next), st.first+uint64(st.next), sendStreamPacket, a0, nil)
	}
	p := st.n.NewPacket()
	p.Src, p.Dst, p.Bytes = st.src, st.dst, st.bytes(i)
	p.Seq = int64(i / st.perFrame)
	p.Handler = st
	st.n.Send(p)
}

func (st *stream) HandleDeliver(p *netsim.Packet) {
	fs := &st.frames[p.Seq]
	fs.received++
	if fs.received == st.perFrame {
		fs.complete = st.n.K.Now()
	}
}

func (st *stream) HandleDrop(*netsim.Packet) { st.lost++ }
