package dist

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/wirejson"
)

// FuzzJobStatus holds the JobStatus codec to encoding/json both ways.
// The client's decoder must give what json.Unmarshal gives on arbitrary
// bytes: the same value, and an error exactly when it errors. A status
// and a journal record built from the input, with in as the report when
// it is valid JSON, must encode to the bytes json.Marshal writes —
// re-compacting the report where it is not compact — and decode back,
// through the reader alone, to what json.Unmarshal makes of those
// bytes. go test replays the corpus in testdata/fuzz; explore with
// go test -run '^$' -fuzz FuzzJobStatus -fuzztime 30s ./internal/dist.
func FuzzJobStatus(f *testing.F) {
	f.Add([]byte(`{"id":"job-1","scenario":"bench-grid","status":"done","report":{"Rows":[]},"text":"F1\n","elapsed_ms":3,"cached":true}`),
		"done", int64(64), true)
	f.Add([]byte("{\"a\": [1, 2],\n \"b\":\"x<y\"}"), "Jülich \u2028<&>\x01\xff", int64(-1), false)
	f.Fuzz(func(t *testing.T, in []byte, s string, n int64, flag bool) {
		got, err := decodeJobStatus(in)
		var want JobStatus
		wantErr := json.Unmarshal(in, &want)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("decodeJobStatus(%q) error %v, json.Unmarshal %v", in, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeJobStatus(%q) = %+v, json.Unmarshal gives %+v", in, got, want)
		}

		report := json.RawMessage(nil)
		if json.Valid(in) {
			report = in
		}
		st := JobStatus{
			ID: s, Scenario: "bench-grid", Status: s, Error: s, Report: report, Text: s,
			Workers: int(n), ElapsedMS: n, PointsDone: int(n >> 1), PointsTotal: -int(n),
			PointHits: int(n % 3), Cached: flag, Tenant: s, Class: "high",
		}
		for i := range int(n & 3) {
			st.Shards = append(st.Shards, core.ShardTiming{Shard: i, Worker: s[:min(i, len(s))], Points: int(n), ElapsedNS: -n})
		}
		spliced, err := appendJobStatus(nil, &st)
		marshaled, wantErr := json.Marshal(st)
		if err != nil || wantErr != nil {
			t.Fatalf("encoding %+v: spliced %v, json.Marshal %v", st, err, wantErr)
		}
		if !bytes.Equal(spliced, marshaled) {
			t.Fatalf("spliced status\n%s\njson.Marshal\n%s", spliced, marshaled)
		}
		back, ok := wirejson.Read(spliced, readJobStatus)
		want = JobStatus{}
		if err := json.Unmarshal(marshaled, &want); err != nil || !ok || !reflect.DeepEqual(back, want) {
			t.Fatalf("spliced status decodes (reader alone: %v) to %+v, json.Unmarshal (%v) to %+v", ok, back, err, want)
		}

		rec := persist.JobRecord{
			ID: s, Scenario: s, Tenant: s, Status: s, Error: s, Report: report, Text: s,
			ElapsedMS: n, PointsTotal: int(n), PointsDone: int(n / 2), PointHits: -int(n), Cached: flag,
		}
		if len(st.Shards) > 0 {
			rec.Timings = appendShardTimings(nil, st.Shards)
		}
		if json.Valid([]byte(s)) {
			rec.Opts = json.RawMessage(s)
		}
		spliced, err = rec.AppendJSON(nil)
		marshaled, wantErr = json.Marshal(rec)
		if err != nil || wantErr != nil {
			t.Fatalf("encoding %+v: spliced %v, json.Marshal %v", rec, err, wantErr)
		}
		if !bytes.Equal(spliced, marshaled) {
			t.Fatalf("spliced record\n%s\njson.Marshal\n%s", spliced, marshaled)
		}
	})
}
