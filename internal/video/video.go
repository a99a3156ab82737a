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

	st := &stream{n: n, src: src, dst: dst, perFrame: pktsPerFrame, frames: make([]frameState, cfg.Frames)}
	pkts := make([]streamPacket, cfg.Frames*pktsPerFrame)
	for f := 0; f < cfg.Frames; f++ {
		for k := 0; k < pktsPerFrame; k++ {
			sp := &pkts[f*pktsPerFrame+k]
			sp.frame, sp.bytes = f, cfg.MTU
			if k == pktsPerFrame-1 {
				sp.bytes = FrameBytes - (pktsPerFrame-1)*cfg.MTU
			}
			at := sim.Time(f)*sim.Time(FrameInterval) + sim.Time(k)*sim.Time(spacing)
			n.K.AtFunc(at, sendStreamPacket, unsafe.Pointer(st), unsafe.Pointer(sp))
		}
	}
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
}

type frameState struct {
	received int
	complete sim.Time
}

// streamPacket is what one packet's send event needs to know.
type streamPacket struct{ frame, bytes int }

// sendStreamPacket is the closure-free send event of one packet: a0 is
// the stream, a1 the packet's streamPacket.
func sendStreamPacket(a0, a1 unsafe.Pointer) {
	st, sp := (*stream)(a0), (*streamPacket)(a1)
	p := st.n.NewPacket()
	p.Src, p.Dst, p.Bytes = st.src, st.dst, sp.bytes
	p.Seq = int64(sp.frame)
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
