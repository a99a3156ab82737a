package fire

import (
	"fmt"

	"repro/internal/mri"
	"repro/internal/volume"
)

// The analysis runs scan by scan and keeps no series. These helpers
// keep one, as the references the streaming paths are pinned against.

// scanSeries runs sc to the end and keeps a clone of every scan: Next
// overwrites the one volume it returns.
func scanSeries(sc *mri.Scanner) []*volume.Volume {
	var series []*volume.Volume
	for v := sc.Next(); v != nil; v = sc.Next() {
		series = append(series, v.Clone())
	}
	return series
}

// correlateSeries computes the correlation map of a complete series in
// one call, through a Correlator.
func correlateSeries(series []*volume.Volume, ref []float64) (*volume.Volume, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("fire: empty series")
	}
	c := NewCorrelator(ref, series[0].NX, series[0].NY, series[0].NZ)
	for _, v := range series {
		if err := c.Add(v); err != nil {
			return nil, err
		}
	}
	return c.Map()
}

// roiTimeCourse extracts the mean signal time course of a region of
// interest — the upper-right display of the FIRE GUI (figure 3) —
// summing each scan's ROI voxels in voxel order.
func roiTimeCourse(series []*volume.Volume, roi []bool) ([]float64, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("fire: empty series")
	}
	if len(roi) != series[0].Voxels() {
		return nil, fmt.Errorf("fire: ROI mask length %d != voxels %d", len(roi), series[0].Voxels())
	}
	var count int
	for _, b := range roi {
		if b {
			count++
		}
	}
	if count == 0 {
		return nil, fmt.Errorf("fire: empty ROI")
	}
	out := make([]float64, len(series))
	for t, v := range series {
		var s float64
		for i, b := range roi {
			if b {
				s += float64(v.Data[i])
			}
		}
		out[t] = s / float64(count)
	}
	return out, nil
}
