package core

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/tcpsim"
	"repro/internal/video"
)

// This file holds the "why gigabit" experiments that motivate the
// OC-12 -> OC-48 upgrade (section 2) and the B-WiN replacement
// (section 1): aggregate backbone load and mixed-traffic behaviour.

// AggregateRow is one backbone saturation measurement.
type AggregateRow struct {
	Backbone      atm.OC
	Flows         int
	AggregateMbps float64
	PerFlowMbps   []float64
}

// BackboneAggregate runs `flows` concurrent workstation-to-workstation
// TCP streams (622 Mbit/s attachments on both sides) across the given
// backbone and reports the aggregate goodput. On OC-12 the backbone is
// the bottleneck; on OC-48 the per-host attachments are.
func BackboneAggregate(wan atm.OC, flows int) (AggregateRow, error) {
	if flows < 1 || flows > 4 {
		return AggregateRow{}, fmt.Errorf("core: 1..4 flows supported, got %d", flows)
	}
	tb := New(Config{WAN: wan})
	srcs := []string{HostWSJuelich, HostWS2Juelich, HostWS3Juelich, HostWS4Juelich}
	dsts := []string{HostWSGMD, HostWS2GMD, HostWS3GMD, HostWS4GMD}
	var fl []*tcpsim.Flow
	for i := 0; i < flows; i++ {
		src, err := tb.Host(srcs[i])
		if err != nil {
			return AggregateRow{}, err
		}
		dst, err := tb.Host(dsts[i])
		if err != nil {
			return AggregateRow{}, err
		}
		f, err := tcpsim.Start(tb.Net, src, dst, 64<<20, tcpsim.Config{WindowBytes: 4 << 20})
		if err != nil {
			return AggregateRow{}, err
		}
		fl = append(fl, f)
	}
	if err := tcpsim.WaitAll(tb.Net, fl...); err != nil {
		return AggregateRow{}, err
	}
	row := AggregateRow{Backbone: wan, Flows: flows}
	for _, f := range fl {
		res, err := f.Result()
		if err != nil {
			return AggregateRow{}, err
		}
		row.PerFlowMbps = append(row.PerFlowMbps, res.ThroughputBps/1e6)
		row.AggregateMbps += res.ThroughputBps / 1e6
	}
	// The kernel is dry and every result is read: recycle the flows.
	for _, f := range fl {
		f.Release()
	}
	return row, nil
}

// MixedTrafficResult compares a D1 video stream sharing the backbone
// with bulk TCP, on both backbone generations.
type MixedTrafficResult struct {
	Backbone atm.OC
	Video    video.StreamResult
	BulkMbps float64
}

// MixedTraffic streams 270 Mbit/s of D1 video Onyx2 -> Jülich while a
// bulk TCP flow runs between workstation pairs. On OC-12 the two
// compete for the 542 Mbit/s payload; on OC-48 both get their fill.
func MixedTraffic(wan atm.OC) (MixedTrafficResult, error) {
	tb := New(Config{WAN: wan})
	onyx, err := tb.Host(HostOnyx2)
	if err != nil {
		return MixedTrafficResult{}, err
	}
	wsj, err := tb.Host(HostWSJuelich)
	if err != nil {
		return MixedTrafficResult{}, err
	}
	src, err := tb.Host(HostWS2GMD)
	if err != nil {
		return MixedTrafficResult{}, err
	}
	dst, err := tb.Host(HostWS2Juelich)
	if err != nil {
		return MixedTrafficResult{}, err
	}
	// Start the bulk flow; the video scheduler then shares the
	// kernel. video.Stream's final Run drives both to completion.
	bulk, err := tcpsim.Start(tb.Net, src, dst, 96<<20, tcpsim.Config{WindowBytes: 4 << 20})
	if err != nil {
		return MixedTrafficResult{}, err
	}
	vres, err := video.Stream(tb.Net, onyx, wsj, video.StreamConfig{Frames: 50})
	if err != nil {
		return MixedTrafficResult{}, err
	}
	if err := tcpsim.WaitAll(tb.Net, bulk); err != nil {
		return MixedTrafficResult{}, err
	}
	bres, err := bulk.Result()
	if err != nil {
		return MixedTrafficResult{}, err
	}
	bulk.Release()
	return MixedTrafficResult{Backbone: wan, Video: vres, BulkMbps: bres.ThroughputBps / 1e6}, nil
}
