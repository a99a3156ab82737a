package core

import (
	"fmt"

	"repro/internal/video"
	"repro/internal/wirejson"
)

// This file is the wire codec of point results: one hand-written
// reader per type a sweep declares with WirePoint, plus WireReport for
// wrapped scenarios. Each reader walks the compact JSON json.Marshal
// writes for its type; wirejson.Decode falls back to json.Unmarshal on
// anything else, so a decoded point is always what json.Unmarshal
// would have produced from the same bytes. A store hit decodes without
// reflection.

// pointDecoder is a sweep's decode function for wire type T.
func pointDecoder[T any](sweep string, read func(*wirejson.Reader, *T)) func([]byte) (any, error) {
	return func(b []byte) (any, error) {
		v, err := wirejson.Decode(b, read)
		if err != nil {
			return nil, fmt.Errorf("core: sweep %q: decoding point result: %w", sweep, err)
		}
		return v, nil
	}
}

func readFigure1Row(r *wirejson.Reader, v *Figure1Row) {
	r.Object(func(key []byte) {
		switch string(key) {
		case "Path":
			r.String(&v.Path)
		case "Src":
			r.String(&v.Src)
		case "Dst":
			r.String(&v.Dst)
		case "MTU":
			wirejson.Int(r, &v.MTU)
		case "Mbps":
			r.Float(&v.Mbps)
		case "PaperMbps":
			r.Float(&v.PaperMbps)
		case "Note":
			r.String(&v.Note)
		default:
			r.Fail()
		}
	})
}

func readAggregateRow(r *wirejson.Reader, v *AggregateRow) {
	r.Object(func(key []byte) {
		switch string(key) {
		case "Backbone":
			wirejson.Int(r, &v.Backbone)
		case "Flows":
			wirejson.Int(r, &v.Flows)
		case "AggregateMbps":
			r.Float(&v.AggregateMbps)
		case "PerFlowMbps":
			wirejson.Slice(r, &v.PerFlowMbps, (*wirejson.Reader).Float)
		default:
			r.Fail()
		}
	})
}

func readMixedTrafficResult(r *wirejson.Reader, v *MixedTrafficResult) {
	r.Object(func(key []byte) {
		switch string(key) {
		case "Backbone":
			wirejson.Int(r, &v.Backbone)
		case "Video":
			readStreamResult(r, &v.Video)
		case "BulkMbps":
			r.Float(&v.BulkMbps)
		default:
			r.Fail()
		}
	})
}

func readStreamResult(r *wirejson.Reader, v *video.StreamResult) {
	r.Object(func(key []byte) {
		switch string(key) {
		case "Frames":
			wirejson.Int(r, &v.Frames)
		case "OnTime":
			wirejson.Int(r, &v.OnTime)
		case "Late":
			wirejson.Int(r, &v.Late)
		case "LostPackets":
			wirejson.Int(r, &v.LostPackets)
		case "MeanDelay":
			wirejson.Int(r, &v.MeanDelay)
		case "PeakJitter":
			wirejson.Int(r, &v.PeakJitter)
		default:
			r.Fail()
		}
	})
}

func readFMRIDataflowReport(r *wirejson.Reader, v *FMRIDataflowReport) {
	r.Object(func(key []byte) {
		switch string(key) {
		case "Scenario":
			readFMRIScenario(r, &v.Scenario)
		case "Result":
			readFMRIScenarioResult(r, &v.Result)
		default:
			r.Fail()
		}
	})
}

func readFMRIScenario(r *wirejson.Reader, v *FMRIScenario) {
	r.Object(func(key []byte) {
		switch string(key) {
		case "PEs":
			wirejson.Int(r, &v.PEs)
		case "TR":
			r.Float(&v.TR)
		case "Frames":
			wirejson.Int(r, &v.Frames)
		case "NX":
			wirejson.Int(r, &v.NX)
		case "NY":
			wirejson.Int(r, &v.NY)
		case "NZ":
			wirejson.Int(r, &v.NZ)
		case "ScannerDelay":
			r.Float(&v.ScannerDelay)
		case "ControlOverhead":
			r.Float(&v.ControlOverhead)
		case "DisplayTime":
			r.Float(&v.DisplayTime)
		default:
			r.Fail()
		}
	})
}

func readFMRIScenarioResult(r *wirejson.Reader, v *FMRIScenarioResult) {
	r.Object(func(key []byte) {
		switch string(key) {
		case "Frames":
			wirejson.Int(r, &v.Frames)
		case "MeanGUIDelay":
			r.Float(&v.MeanGUIDelay)
		case "MaxGUIDelay":
			r.Float(&v.MaxGUIDelay)
		case "MeanVRDelay":
			r.Float(&v.MeanVRDelay)
		case "ComputeSeconds":
			r.Float(&v.ComputeSeconds)
		case "WireSeconds":
			r.Float(&v.WireSeconds)
		default:
			r.Fail()
		}
	})
}

func readWireReport(r *wirejson.Reader, v *WireReport) {
	r.Object(func(key []byte) {
		switch string(key) {
		case "report":
			r.Raw((*[]byte)(&v.R))
		case "text":
			r.String(&v.T)
		default:
			r.Fail()
		}
	})
}
