package dist

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/wirejson"
)

// This file encodes and decodes JobStatus, the one reply that carries a
// whole report, without going through encoding/json again. The report
// is already the compact, HTML-escaped bytes json.Marshal wrote, so the
// coordinator splices it into the reply as it is (wirejson.AppendRaw),
// and the Client keeps it as its exact raw span. The bytes are the ones
// json.Marshal and json.Unmarshal would produce; FuzzJobStatus checks
// both directions.

// appendJobStatus appends st as json.Marshal encodes it.
func appendJobStatus(b []byte, st *JobStatus) ([]byte, error) {
	b = wirejson.AppendString(append(b, `{"id":`...), st.ID)
	b = wirejson.AppendString(append(b, `,"scenario":`...), st.Scenario)
	b = wirejson.AppendString(append(b, `,"status":`...), st.Status)
	if st.Error != "" {
		b = wirejson.AppendString(append(b, `,"error":`...), st.Error)
	}
	if len(st.Report) > 0 {
		var err error
		if b, err = wirejson.AppendRaw(append(b, `,"report":`...), st.Report); err != nil {
			return nil, err
		}
	}
	if st.Text != "" {
		b = wirejson.AppendString(append(b, `,"text":`...), st.Text)
	}
	if st.Workers != 0 {
		b = strconv.AppendInt(append(b, `,"workers":`...), int64(st.Workers), 10)
	}
	if len(st.Shards) > 0 {
		b = appendShardTimings(append(b, `,"shards":`...), st.Shards)
	}
	b = strconv.AppendInt(append(b, `,"elapsed_ms":`...), st.ElapsedMS, 10)
	if st.PointsDone != 0 {
		b = strconv.AppendInt(append(b, `,"points_done":`...), int64(st.PointsDone), 10)
	}
	if st.PointsTotal != 0 {
		b = strconv.AppendInt(append(b, `,"points_total":`...), int64(st.PointsTotal), 10)
	}
	if st.PointHits != 0 {
		b = strconv.AppendInt(append(b, `,"point_hits":`...), int64(st.PointHits), 10)
	}
	if st.Cached {
		b = append(b, `,"cached":true`...)
	}
	if st.Tenant != "" {
		b = wirejson.AppendString(append(b, `,"tenant":`...), st.Tenant)
	}
	if st.Class != "" {
		b = wirejson.AppendString(append(b, `,"class":`...), st.Class)
	}
	return append(b, '}'), nil
}

// appendShardTimings appends ts as json.Marshal encodes the slice.
func appendShardTimings(b []byte, ts []core.ShardTiming) []byte {
	b = append(b, '[')
	for i, t := range ts {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"shard":`...), int64(t.Shard), 10)
		if t.Worker != "" {
			b = wirejson.AppendString(append(b, `,"worker":`...), t.Worker)
		}
		b = strconv.AppendInt(append(b, `,"points":`...), int64(t.Points), 10)
		b = strconv.AppendInt(append(b, `,"elapsed_ns":`...), t.ElapsedNS, 10)
		b = append(b, '}')
	}
	return append(b, ']')
}

// decodeJobStatus decodes a JobStatus reply as json.Unmarshal would.
func decodeJobStatus(b []byte) (JobStatus, error) {
	return wirejson.Decode(b, readJobStatus)
}

func readJobStatus(r *wirejson.Reader, st *JobStatus) {
	r.Object(func(key []byte) {
		switch string(key) {
		case "id":
			r.String(&st.ID)
		case "scenario":
			r.String(&st.Scenario)
		case "status":
			r.String(&st.Status)
		case "error":
			r.String(&st.Error)
		case "report":
			r.Raw((*[]byte)(&st.Report))
		case "text":
			r.String(&st.Text)
		case "workers":
			wirejson.Int(r, &st.Workers)
		case "shards":
			wirejson.Slice(r, &st.Shards, readShardTiming)
		case "elapsed_ms":
			wirejson.Int(r, &st.ElapsedMS)
		case "points_done":
			wirejson.Int(r, &st.PointsDone)
		case "points_total":
			wirejson.Int(r, &st.PointsTotal)
		case "point_hits":
			wirejson.Int(r, &st.PointHits)
		case "cached":
			r.Bool(&st.Cached)
		case "tenant":
			r.String(&st.Tenant)
		case "class":
			r.String(&st.Class)
		default:
			r.Fail()
		}
	})
}

func readShardTiming(r *wirejson.Reader, t *core.ShardTiming) {
	r.Object(func(key []byte) {
		switch string(key) {
		case "shard":
			wirejson.Int(r, &t.Shard)
		case "worker":
			r.String(&t.Worker)
		case "points":
			wirejson.Int(r, &t.Points)
		case "elapsed_ns":
			wirejson.Int(r, &t.ElapsedNS)
		default:
			r.Fail()
		}
	})
}
