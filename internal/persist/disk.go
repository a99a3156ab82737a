package persist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// Disk is the disk-backed Store: an append-only write-ahead log of
// state mutations plus periodic full-state snapshots that truncate the
// log. The layout inside the data directory is
//
//	snapshot.json   last full state, with the generation of its log
//	wal-<gen>.log   CRC-framed mutation records since that snapshot
//
// Recovery loads the snapshot and replays the matching log. Each log
// record is [4-byte length | 4-byte CRC32 | JSON payload]: a record cut
// short by a crash, or one whose checksum no longer matches, ends the
// replay at the last good entry with a warning — never an error — and
// the log is truncated there so appends resume from a clean tail.
//
// Snapshots are atomic: the new state is written to a temp file, synced
// and renamed over snapshot.json, and only then is the old log deleted.
// A crash between those steps leaves either the old snapshot+log or the
// new snapshot (plus a stale log the next open ignores and removes) —
// both recover correctly.
type Disk struct {
	dir string
	opt DiskOptions

	mu       sync.Mutex
	m        *mirror
	gen      uint64
	wal      *os.File
	walBytes int64
	closed   bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// DiskOptions tunes a Disk store.
type DiskOptions struct {
	// SnapshotEvery compacts the log on this interval (default 1m;
	// negative disables the timer — snapshots then happen only on Close,
	// on Snapshot calls, and past SnapshotBytes).
	SnapshotEvery time.Duration
	// SnapshotBytes compacts the log when it grows past this many bytes
	// (default 8 MiB; negative disables the size trigger).
	SnapshotBytes int64
	// Logf receives warnings (corrupt log tails, failed appends). Nil
	// discards.
	Logf func(format string, args ...any)
}

func (o DiskOptions) withDefaults() DiskOptions {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = time.Minute
	}
	if o.SnapshotBytes == 0 {
		o.SnapshotBytes = 8 << 20
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// walRecord is one journaled mutation.
type walRecord struct {
	Op     string        `json:"op"` // point | delpoint | job | deljob | worker | audit
	Key    string        `json:"key,omitempty"`
	Val    []byte        `json:"val,omitempty"`
	Job    *JobRecord    `json:"job,omitempty"`
	Worker *WorkerRecord `json:"worker,omitempty"`
	Audit  *AuditRecord  `json:"audit,omitempty"`
}

// encode returns the record's JSON payload, the bytes json.Marshal
// would write. A job record is spliced by hand (JobRecord.AppendJSON):
// json.Marshal would re-compact its report.
func (rec walRecord) encode() ([]byte, error) {
	if rec.Op != "job" || rec.Job == nil {
		return json.Marshal(rec)
	}
	b := make([]byte, 0, 256+len(rec.Job.Report)+len(rec.Job.Text))
	b, err := rec.Job.AppendJSON(append(b, `{"op":"job","job":`...))
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// diskSnapshot is the snapshot.json schema.
type diskSnapshot struct {
	Gen   uint64 `json:"gen"`
	State *State `json:"state"`
}

const (
	walHeader    = 8        // uint32 length + uint32 crc32, little endian
	maxWalRecord = 64 << 20 // sanity bound: a larger length field is corruption
)

// Open opens (or initializes) a disk store in dir, recovering
// snapshot+log state. The directory is created if missing.
func Open(dir string, opt DiskOptions) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	d := &Disk{
		dir: dir, opt: opt.withDefaults(), m: newMirror(),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	if err := d.recover(); err != nil {
		return nil, err
	}
	go d.snapshotLoop()
	return d, nil
}

func (d *Disk) snapshotPath() string { return filepath.Join(d.dir, "snapshot.json") }
func (d *Disk) walPath(gen uint64) string {
	return filepath.Join(d.dir, fmt.Sprintf("wal-%d.log", gen))
}

// recover loads snapshot.json, replays its log, truncates any corrupt
// tail, opens the log for append and removes stale logs from other
// generations.
func (d *Disk) recover() error {
	b, err := os.ReadFile(d.snapshotPath())
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh directory: generation 0, empty state.
	case err != nil:
		return fmt.Errorf("persist: reading snapshot: %w", err)
	default:
		var snap diskSnapshot
		if jerr := json.Unmarshal(b, &snap); jerr != nil {
			return fmt.Errorf("persist: snapshot %s is unreadable: %w", d.snapshotPath(), jerr)
		}
		d.gen = snap.Gen
		d.m.load(snap.State)
	}
	good, err := d.replayWAL(d.walPath(d.gen))
	if err != nil {
		return err
	}
	f, err := os.OpenFile(d.walPath(d.gen), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: opening log: %w", err)
	}
	// Truncate past the last good record (no-op on a clean log), then
	// seek to the new tail for appends.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return fmt.Errorf("persist: truncating corrupt log tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	d.wal, d.walBytes = f, good
	d.removeStaleWALs()
	return nil
}

// replayWAL applies every intact record of the log at path to the
// mirror and returns the byte offset just past the last good record.
// Corruption — a truncated final record, or a checksum mismatch — ends
// the replay there with a warning; it is the expected shape of a log
// whose writer was killed mid-append, not an error.
func (d *Disk) replayWAL(path string) (good int64, err error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("persist: reading log: %w", err)
	}
	off := int64(0)
	records := 0
	for {
		rest := b[off:]
		if len(rest) == 0 {
			return off, nil // clean end
		}
		if len(rest) < walHeader {
			d.opt.Logf("persist: log %s: truncated record header at offset %d; recovering to last good entry (%d record(s))",
				path, off, records)
			return off, nil
		}
		length := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if length == 0 || length > maxWalRecord {
			d.opt.Logf("persist: log %s: implausible record length %d at offset %d; recovering to last good entry (%d record(s))",
				path, length, off, records)
			return off, nil
		}
		if int64(len(rest)) < walHeader+int64(length) {
			d.opt.Logf("persist: log %s: truncated record payload at offset %d (%d of %d bytes); recovering to last good entry (%d record(s))",
				path, off, len(rest)-walHeader, length, records)
			return off, nil
		}
		payload := rest[walHeader : walHeader+int64(length)]
		if crc32.ChecksumIEEE(payload) != sum {
			d.opt.Logf("persist: log %s: checksum mismatch at offset %d; recovering to last good entry (%d record(s))",
				path, off, records)
			return off, nil
		}
		var rec walRecord
		if jerr := json.Unmarshal(payload, &rec); jerr != nil {
			d.opt.Logf("persist: log %s: unparseable record at offset %d: %v; recovering to last good entry (%d record(s))",
				path, off, jerr, records)
			return off, nil
		}
		d.applyLocked(rec)
		off += walHeader + int64(length)
		records++
	}
}

// applyLocked applies one journal record to the mirror.
func (d *Disk) applyLocked(rec walRecord) {
	switch rec.Op {
	case "point":
		d.m.putPoint(rec.Key, rec.Val)
	case "delpoint":
		d.m.deletePoint(rec.Key)
	case "job":
		if rec.Job != nil {
			d.m.putJob(*rec.Job)
		}
	case "deljob":
		d.m.deleteJob(rec.Key)
	case "worker":
		if rec.Worker != nil {
			d.m.putWorker(*rec.Worker)
		}
	case "audit":
		if rec.Audit != nil {
			d.m.appendAudit(*rec.Audit)
		}
	}
}

// removeStaleWALs deletes logs from other generations — leftovers of a
// crash between a snapshot rename and its log cleanup.
func (d *Disk) removeStaleWALs() {
	matches, _ := filepath.Glob(filepath.Join(d.dir, "wal-*.log"))
	cur := d.walPath(d.gen)
	for _, m := range matches {
		if m != cur {
			os.Remove(m)
		}
	}
}

// append journals one mutation and applies it to the mirror. Write
// failures degrade durability, not service: they are logged and the
// in-memory mirror stays authoritative for later snapshots.
func (d *Disk) append(rec walRecord) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.applyLocked(rec)
	payload, err := rec.encode()
	if err != nil {
		d.opt.Logf("persist: marshaling %s record: %v", rec.Op, err)
		return
	}
	frame := make([]byte, walHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[walHeader:], payload)
	if _, err := d.wal.Write(frame); err != nil {
		d.opt.Logf("persist: appending %s record: %v", rec.Op, err)
		return
	}
	d.walBytes += int64(len(frame))
	if d.opt.SnapshotBytes > 0 && d.walBytes >= d.opt.SnapshotBytes {
		if err := d.snapshotLocked(); err != nil {
			d.opt.Logf("persist: size-triggered snapshot: %v", err)
		}
	}
}

// Load implements Store.
func (d *Disk) Load() *State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.m.state()
}

// PutPoint implements Store.
func (d *Disk) PutPoint(key string, val []byte) {
	d.append(walRecord{Op: "point", Key: key, Val: val})
}

// DeletePoint implements Store.
func (d *Disk) DeletePoint(key string) {
	d.append(walRecord{Op: "delpoint", Key: key})
}

// PutJob implements Store.
func (d *Disk) PutJob(rec JobRecord) {
	d.append(walRecord{Op: "job", Job: &rec})
}

// DeleteJob implements Store.
func (d *Disk) DeleteJob(id string) {
	d.append(walRecord{Op: "deljob", Key: id})
}

// PutWorker implements Store.
func (d *Disk) PutWorker(rec WorkerRecord) {
	d.append(walRecord{Op: "worker", Worker: &rec})
}

// AppendAudit implements Store.
func (d *Disk) AppendAudit(rec AuditRecord) {
	d.append(walRecord{Op: "audit", Audit: &rec})
}

// Snapshot implements Store: compact the log into a fresh snapshot now.
func (d *Disk) Snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	return d.snapshotLocked()
}

// snapshotLocked writes the mirror as generation gen+1 and swings the
// log over: tmp-write + fsync + rename the snapshot, open the new
// (empty) log, delete the old one.
func (d *Disk) snapshotLocked() error {
	next := d.gen + 1
	// The bytes json.Marshal(&diskSnapshot{...}) would write, with every
	// job record spliced (State.appendJSON).
	b := strconv.AppendUint([]byte(`{"gen":`), next, 10)
	b, err := d.m.state().appendJSON(append(b, `,"state":`...))
	if err != nil {
		return fmt.Errorf("persist: marshaling snapshot: %w", err)
	}
	b = append(b, '}')
	tmp := d.snapshotPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err = f.Write(b); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, d.snapshotPath()); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	nw, err := os.OpenFile(d.walPath(next), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: opening log for generation %d: %w", next, err)
	}
	old := d.wal
	oldPath := d.walPath(d.gen)
	d.wal, d.walBytes, d.gen = nw, 0, next
	if old != nil {
		old.Close()
	}
	os.Remove(oldPath)
	return nil
}

// snapshotLoop compacts the log on the configured interval.
func (d *Disk) snapshotLoop() {
	defer close(d.done)
	if d.opt.SnapshotEvery <= 0 {
		<-d.stop
		return
	}
	t := time.NewTicker(d.opt.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			if err := d.Snapshot(); err != nil {
				d.opt.Logf("persist: periodic snapshot: %v", err)
			}
		}
	}
}

// Close implements Store: stop the timer, take a final snapshot, close
// the log. Mutations after Close are ignored.
func (d *Disk) Close() error {
	d.stopOnce.Do(func() { close(d.stop) })
	<-d.done
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	err := d.snapshotLocked()
	d.closed = true
	if d.wal != nil {
		if cerr := d.wal.Close(); err == nil {
			err = cerr
		}
		d.wal = nil
	}
	return err
}
