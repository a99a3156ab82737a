package persist

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var writeJournalFixture = flag.Bool("write-journal-fixture", false,
	"rewrite testdata/journal-v1 from this tree's Disk")

// journalFixture is a data directory written by the json.Marshal
// encoder that Disk used before job records were spliced
// (JobRecord.AppendJSON), with the state it recovers to and the
// snapshot that state compacts into.
var journalFixture = filepath.Join("testdata", "journal-v1")

// fixtureReport is a report as Report.JSON() writes one: compact, with
// <, > and & escaped, and UTF-8 text.
func fixtureReport(t *testing.T) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"Rows": []map[string]any{
			{"Path": "Cray T3E -> IBM SP2 <WAN> & back", "Mbps": 262.91, "Note": "Jülich\u2028Sankt Augustin"},
			{"Path": "local", "Mbps": 434.0000001, "MTU": 65536},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// writeJournalHistory drives a fresh Disk through every kind of record,
// with one snapshot in the middle, and leaves snapshot.json (generation
// 1) and wal-1.log behind: it must not be closed, which would compact
// the log away.
func writeJournalHistory(t *testing.T, d *Disk) {
	t.Helper()
	report := fixtureReport(t)
	timings := json.RawMessage(`[{"shard":0,"worker":"w-1","points":3,"elapsed_ns":1200},{"shard":1,"points":2,"elapsed_ns":900}]`)
	d.PutPoint("k-a", []byte(`{"Path":"a","Mbps":1}`))
	d.PutPoint("k-b", []byte{0, 1, 2, 0xff})
	d.PutJob(JobRecord{ID: "job-1", Scenario: "figure1-throughput", Tenant: "bench",
		Opts: json.RawMessage(`{"wan":48,"pes":256}`), Status: "done", Report: report,
		Text: "F1: throughput\n  <local>\t434 Mbit/s & more\n", Timings: timings,
		ElapsedMS: 12, PointsTotal: 5, PointsDone: 5, PointHits: 2})
	d.PutJob(JobRecord{ID: "job-2", Scenario: "fmri-pe-sweep", Status: "queued", PointsTotal: 3})
	d.PutWorker(WorkerRecord{ID: "w-1", Points: 7, RatePPS: 123.25})
	d.AppendAudit(AuditRecord{TimeMS: 1700000000000, Tenant: "bench", Action: "job-submit", JobID: "job-1", Detail: "figure1-throughput"})
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// After the snapshot: a running record, which older builds journaled
	// when a job started; a report json.Marshal would re-compact; a
	// failed job; and deletions.
	d.PutJob(JobRecord{ID: "job-2", Scenario: "fmri-pe-sweep", Status: "running", PointsTotal: 3})
	d.PutJob(JobRecord{ID: "job-3", Scenario: "fmri-dataflow", Status: "done",
		Report: json.RawMessage("{\"a\": [1, 2],\n \"b\":\"x<y\"}"), Text: "t", Cached: true, PointHits: 1, PointsTotal: 1, PointsDone: 1})
	d.PutJob(JobRecord{ID: "job-4", Scenario: "video-d1", Status: "failed", Error: "dist: \"quoted\" \x01 failure"})
	d.PutPoint("k-c", []byte("{\"report\":{},\"text\":\"\\n\"}"))
	d.DeletePoint("k-a")
	d.DeleteJob("job-4")
	d.PutWorker(WorkerRecord{ID: "w-2"})
	d.AppendAudit(AuditRecord{TimeMS: 1700000000001, Action: "worker-register", Detail: "w-2"})
}

// openNoTimer opens a Disk that snapshots only when told to.
func openNoTimer(t *testing.T, dir string) *Disk {
	t.Helper()
	d, err := Open(dir, DiskOptions{SnapshotEvery: -1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recoverFixture opens a copy of the fixture's snapshot and log and
// returns the state they recover to and the snapshot that state
// compacts into.
func recoverFixture(t *testing.T) (state, snapshot []byte) {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"snapshot.json", "wal-1.log"} {
		if err := os.WriteFile(filepath.Join(dir, name), readFile(t, filepath.Join(journalFixture, name)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d := openNoTimer(t, dir)
	defer d.Close()
	state, err := json.Marshal(d.Load())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	return state, readFile(t, filepath.Join(dir, "snapshot.json"))
}

// A journal written before job records were spliced recovers to the
// same state and compacts into the same snapshot bytes, and the same
// history written now produces the same log and snapshot bytes: the
// splice changed how the bytes are made, not what they are.
func TestJournalFixtureRecovers(t *testing.T) {
	if *writeJournalFixture {
		dir := t.TempDir()
		d := openNoTimer(t, dir)
		writeJournalHistory(t, d)
		if err := os.MkdirAll(journalFixture, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"snapshot.json", "wal-1.log"} {
			if err := os.WriteFile(filepath.Join(journalFixture, name), readFile(t, filepath.Join(dir, name)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		d.Close()
		state, snapshot := recoverFixture(t)
		for name, b := range map[string][]byte{"state.json": state, "resnapshot.json": snapshot} {
			if err := os.WriteFile(filepath.Join(journalFixture, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}

	state, snapshot := recoverFixture(t)
	if want := readFile(t, filepath.Join(journalFixture, "state.json")); !bytes.Equal(state, want) {
		t.Errorf("recovered state differs from the fixture's:\n got %s\nwant %s", state, want)
	}
	if want := readFile(t, filepath.Join(journalFixture, "resnapshot.json")); !bytes.Equal(snapshot, want) {
		t.Errorf("snapshot of the recovered state differs from the fixture's:\n got %s\nwant %s", snapshot, want)
	}

	// Writing: the same history, journaled by this build.
	dir := t.TempDir()
	d := openNoTimer(t, dir)
	defer d.Close()
	writeJournalHistory(t, d)
	for _, name := range []string{"snapshot.json", "wal-1.log"} {
		if got, want := readFile(t, filepath.Join(dir, name)), readFile(t, filepath.Join(journalFixture, name)); !bytes.Equal(got, want) {
			t.Errorf("%s differs from the fixture's:\n got %q\nwant %q", name, got, want)
		}
	}
}
