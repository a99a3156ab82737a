package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fill applies a representative set of mutations to any Store.
func fill(s Store) {
	s.PutJob(JobRecord{ID: "job-1", Scenario: "sweep-a", Status: "running",
		Opts: json.RawMessage(`{"frames":3}`)})
	s.PutJob(JobRecord{ID: "job-2", Scenario: "sweep-b", Status: "done",
		Report: json.RawMessage(`{"rows":[1,2]}`), Text: "table", PointsTotal: 4, PointsDone: 4})
	s.PutWorker(WorkerRecord{ID: "w-aa", Points: 12, RatePPS: 40.5})
	s.PutPoint("k1", []byte("v1"))
	s.PutPoint("k2", []byte("v2"))
	s.PutPoint("k3", []byte("v3"))
	s.DeletePoint("k2")
	s.PutPoint("k1", []byte("v1b")) // upsert refreshes recency
	s.AppendAudit(AuditRecord{TimeMS: 100, Tenant: "climate", Action: "job-submit", JobID: "job-1"})
	s.AppendAudit(AuditRecord{TimeMS: 200, Tenant: "climate", Action: "job-done", JobID: "job-1", Detail: "4 points"})
}

// wantFilled asserts the state fill produces, on any Store.
func wantFilled(t *testing.T, st *State) {
	t.Helper()
	if len(st.Jobs) != 2 || st.Jobs[0].ID != "job-1" || st.Jobs[1].ID != "job-2" {
		t.Fatalf("jobs = %+v, want job-1 then job-2", st.Jobs)
	}
	if st.Jobs[0].Status != "running" || string(st.Jobs[1].Report) != `{"rows":[1,2]}` {
		t.Errorf("job fields lost: %+v", st.Jobs)
	}
	if len(st.Workers) != 1 || st.Workers[0].RatePPS != 40.5 || st.Workers[0].Points != 12 {
		t.Errorf("workers = %+v", st.Workers)
	}
	// k2 deleted; k1 refreshed after k3, so oldest-first order is k3, k1.
	if len(st.Points) != 2 || st.Points[0].Key != "k3" || st.Points[1].Key != "k1" {
		t.Fatalf("points = %+v, want [k3 k1] oldest-first", st.Points)
	}
	if !bytes.Equal(st.Points[1].Val, []byte("v1b")) {
		t.Errorf("k1 = %q, want upserted v1b", st.Points[1].Val)
	}
	if len(st.Audit) != 2 || st.Audit[0].Action != "job-submit" || st.Audit[1].Action != "job-done" {
		t.Fatalf("audit = %+v, want [job-submit job-done] oldest-first", st.Audit)
	}
	if st.Audit[1].Tenant != "climate" || st.Audit[1].JobID != "job-1" || st.Audit[1].TimeMS != 200 {
		t.Errorf("audit fields lost: %+v", st.Audit[1])
	}
}

// The audit trail is bounded: only the newest maxAuditRecords entries
// survive, in both implementations and across snapshot round-trips.
func TestAuditTrailBounded(t *testing.T) {
	mem := NewMem()
	for i := 0; i < maxAuditRecords+10; i++ {
		mem.AppendAudit(AuditRecord{TimeMS: int64(i), Action: "job-submit"})
	}
	st := mem.Load()
	if len(st.Audit) != maxAuditRecords {
		t.Fatalf("mem audit len = %d, want %d", len(st.Audit), maxAuditRecords)
	}
	if st.Audit[0].TimeMS != 10 || st.Audit[len(st.Audit)-1].TimeMS != int64(maxAuditRecords+9) {
		t.Fatalf("mem audit window = [%d..%d], want newest window",
			st.Audit[0].TimeMS, st.Audit[len(st.Audit)-1].TimeMS)
	}

	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{SnapshotEvery: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxAuditRecords+10; i++ {
		d.AppendAudit(AuditRecord{TimeMS: int64(i), Action: "job-submit"})
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, DiskOptions{SnapshotEvery: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st = re.Load()
	if len(st.Audit) != maxAuditRecords || st.Audit[0].TimeMS != 10 {
		t.Fatalf("disk audit after reopen: len=%d first=%d, want len=%d first=10",
			len(st.Audit), st.Audit[0].TimeMS, maxAuditRecords)
	}
}

// Appending to a full audit trail overwrites its oldest entry in place:
// after twice the cap plus one appends, both implementations hold
// exactly the newest maxAuditRecords entries, oldest first, and a
// snapshot loads back the same trail.
func TestAuditTrailWrapsInOrder(t *testing.T) {
	const n = 2*maxAuditRecords + 1
	check := func(name string, st *State, appended int) {
		t.Helper()
		if len(st.Audit) != maxAuditRecords {
			t.Fatalf("%s: audit len = %d, want %d", name, len(st.Audit), maxAuditRecords)
		}
		for i, a := range st.Audit {
			if want := int64(appended - maxAuditRecords + i); a.TimeMS != want {
				t.Fatalf("%s: audit[%d] = %d, want %d: the newest entries, oldest first", name, i, a.TimeMS, want)
			}
		}
	}
	mem := NewMem()
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{SnapshotEvery: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := AuditRecord{TimeMS: int64(i), Action: "job-submit"}
		mem.AppendAudit(rec)
		d.AppendAudit(rec)
	}
	check("mem", mem.Load(), n)
	check("disk", d.Load(), n)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	d.AppendAudit(AuditRecord{TimeMS: n, Action: "job-submit"})
	// Kill it without a final snapshot: the reopen loads the snapshot
	// and replays the last append from the log over it.
	d.mu.Lock()
	d.wal.Close()
	d.closed = true
	d.mu.Unlock()
	d.stopOnce.Do(func() { close(d.stop) })
	re, err := Open(dir, DiskOptions{SnapshotEvery: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check("disk after snapshot, one more append and a kill", re.Load(), n+1)
}

// The two implementations agree on the contract: the same mutation
// sequence loads back as the same state.
func TestMemAndDiskAgreeOnState(t *testing.T) {
	mem := NewMem()
	fill(mem)
	wantFilled(t, mem.Load())

	dir := t.TempDir()
	disk, err := Open(dir, DiskOptions{SnapshotEvery: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	fill(disk)
	wantFilled(t, disk.Load())
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the final snapshot alone must reproduce the state.
	re, err := Open(dir, DiskOptions{SnapshotEvery: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	wantFilled(t, re.Load())
}

// A store whose process dies without Close (no final snapshot) recovers
// everything from the log alone.
func TestDiskRecoversFromWALWithoutClose(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{SnapshotEvery: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	fill(d)
	// Simulate a kill: drop the handle without snapshotting.
	d.mu.Lock()
	d.wal.Close()
	d.closed = true
	d.mu.Unlock()
	d.stopOnce.Do(func() { close(d.stop) })

	re, err := Open(dir, DiskOptions{SnapshotEvery: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	wantFilled(t, re.Load())
}

// Snapshots compact: after Snapshot the log restarts empty, the old
// generation's log is gone, and mutations after the snapshot land in
// the new log and survive a reopen.
func TestDiskSnapshotTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{SnapshotEvery: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	fill(d)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	logs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(logs) != 1 {
		t.Fatalf("logs after snapshot: %v, want exactly the new generation", logs)
	}
	if fi, err := os.Stat(logs[0]); err != nil || fi.Size() != 0 {
		t.Fatalf("new log %s not empty: %v %v", logs[0], fi.Size(), err)
	}
	d.PutPoint("k4", []byte("v4"))
	// Kill without Close again: snapshot + one-record log.
	d.mu.Lock()
	d.wal.Close()
	d.closed = true
	d.mu.Unlock()
	d.stopOnce.Do(func() { close(d.stop) })

	re, err := Open(dir, DiskOptions{SnapshotEvery: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.Load()
	if len(st.Points) != 3 || st.Points[2].Key != "k4" {
		t.Fatalf("post-snapshot mutation lost: %+v", st.Points)
	}
}

// The log grows past SnapshotBytes → the store compacts on its own.
func TestDiskSizeTriggeredSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{SnapshotEvery: -1, SnapshotBytes: 256, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 64; i++ {
		d.PutPoint(fmt.Sprintf("k%03d", i), bytes.Repeat([]byte("x"), 32))
	}
	d.mu.Lock()
	gen, walBytes := d.gen, d.walBytes
	d.mu.Unlock()
	if gen == 0 {
		t.Fatal("no size-triggered snapshot happened")
	}
	if walBytes >= 256+128 {
		t.Errorf("log not reset after snapshot: %d bytes", walBytes)
	}
}

// Corruption tolerance, regression tests for the two crash shapes:
//
// A final record cut short by a dying writer — header alone, or header
// plus partial payload — recovers to the last good entry with a
// warning, and the truncated tail is discarded so appends resume clean.
func TestWALTruncatedFinalRecordTolerated(t *testing.T) {
	for _, cut := range []struct {
		name string
		keep int64 // bytes to keep beyond the last good record
	}{
		{"header-only", 5},
		{"partial-payload", walHeader + 3},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := Open(dir, DiskOptions{SnapshotEvery: -1, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			d.PutPoint("good-1", []byte("aaa"))
			d.PutPoint("good-2", []byte("bbb"))
			d.mu.Lock()
			goodEnd := d.walBytes
			d.mu.Unlock()
			d.PutPoint("doomed", []byte("this record will be cut short"))
			d.mu.Lock()
			d.wal.Close()
			d.closed = true
			d.mu.Unlock()
			d.stopOnce.Do(func() { close(d.stop) })

			walFile := filepath.Join(dir, "wal-0.log")
			if err := os.Truncate(walFile, goodEnd+cut.keep); err != nil {
				t.Fatal(err)
			}
			var warned []string
			logf := func(f string, a ...any) { warned = append(warned, fmt.Sprintf(f, a...)) }
			re, err := Open(dir, DiskOptions{SnapshotEvery: -1, Logf: logf})
			if err != nil {
				t.Fatalf("truncated log must open, got %v", err)
			}
			defer re.Close()
			st := re.Load()
			if len(st.Points) != 2 || st.Points[0].Key != "good-1" || st.Points[1].Key != "good-2" {
				t.Fatalf("recovered points = %+v, want the two good entries", st.Points)
			}
			if len(warned) == 0 || !strings.Contains(strings.Join(warned, "\n"), "truncated") {
				t.Errorf("no truncation warning logged: %v", warned)
			}
			// The tail was discarded: the log is appendable again and a
			// new mutation survives the next open.
			re.PutPoint("after", []byte("ccc"))
			if fi, err := os.Stat(walFile); err != nil || fi.Size() <= goodEnd {
				t.Errorf("append after recovery did not grow the log: %v %v", fi, err)
			}
		})
	}
}

// A record whose payload was corrupted in place (checksum mismatch)
// ends the replay at the last good entry with a warning.
func TestWALChecksumMismatchTolerated(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{SnapshotEvery: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	d.PutPoint("good", []byte("aaa"))
	d.mu.Lock()
	goodEnd := d.walBytes
	d.mu.Unlock()
	d.PutPoint("flipped", []byte("bbb"))
	d.PutPoint("shadowed", []byte("ccc")) // intact, but after the corruption: must not replay
	d.mu.Lock()
	d.wal.Close()
	d.closed = true
	d.mu.Unlock()
	d.stopOnce.Do(func() { close(d.stop) })

	walFile := filepath.Join(dir, "wal-0.log")
	b, err := os.ReadFile(walFile)
	if err != nil {
		t.Fatal(err)
	}
	b[goodEnd+walHeader+2] ^= 0xff // flip a payload byte of the second record
	if err := os.WriteFile(walFile, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var warned []string
	logf := func(f string, a ...any) { warned = append(warned, fmt.Sprintf(f, a...)) }
	re, err := Open(dir, DiskOptions{SnapshotEvery: -1, Logf: logf})
	if err != nil {
		t.Fatalf("corrupt log must open, got %v", err)
	}
	defer re.Close()
	st := re.Load()
	if len(st.Points) != 1 || st.Points[0].Key != "good" {
		t.Fatalf("recovered points = %+v, want only the pre-corruption entry", st.Points)
	}
	if len(warned) == 0 || !strings.Contains(strings.Join(warned, "\n"), "checksum") {
		t.Errorf("no checksum warning logged: %v", warned)
	}
}

// Concurrent mutation is safe (the coordinator journals from HTTP
// handlers, shard goroutines and the reaper at once).
func TestDiskConcurrentAppends(t *testing.T) {
	d, err := Open(t.TempDir(), DiskOptions{SnapshotEvery: time.Millisecond, SnapshotBytes: 2048, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				d.PutPoint(fmt.Sprintf("g%d-k%d", g, i), []byte("v"))
				d.PutWorker(WorkerRecord{ID: fmt.Sprintf("w-%d", g), Points: i})
			}
		}(g)
	}
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if st := d.Load(); len(st.Points) != 8*50 {
		t.Errorf("points after concurrent appends = %d, want %d", len(st.Points), 8*50)
	}
}
