package dist

import (
	"container/list"
	"sync"
)

// pointStore is the coordinator's content-addressed result store: the
// wire bytes of finished grid points, keyed by the point's content
// address (core.Sweep.PointKey — a hash of scenario, grid coordinates
// and the option fields the point depends on). It replaces the old
// whole-report LRU: caching at point granularity means two jobs whose
// grids merely overlap reuse each other's finished points, a job
// resubmitted with different-but-irrelevant options is served entirely
// from the store, and a job that fails or is cancelled still leaves its
// completed points behind for the next submission.
//
// Eviction is least-recently-used over a bounded entry count and,
// optionally, a total byte budget over the stored wire bytes; a
// per-entry size cap rejects single oversized results outright. The
// store keeps encoded wire bytes, not live values: a hit decodes
// exactly as a fresh upload would — which is what keeps reports
// assembled from cached points byte-identical to freshly computed ones.
// That decode is the sweep's typed reader (core's codec.go), which
// walks the compact JSON the store holds without reflection; the key a
// hit is looked up by comes from the sweep's memoized per-point key
// suffixes.
//
// onPut/onEvict, when set, observe every accepted insert/update and
// every eviction (both called with the store lock held) — the
// coordinator journals them to its persistence store, so the durable
// image tracks residency and a restart never resurrects evicted
// points.
type pointStore struct {
	mu                     sync.Mutex
	cap                    int
	capBytes               int64 // total wire-byte budget; 0 = entries-only bound
	entryCap               int   // per-entry wire-byte cap; 0 = uncapped
	bytes                  int64
	order                  *list.List // front = most recently used
	byKey                  map[string]*list.Element
	hits, misses, rejected int64
	evictions              int64

	onPut   func(key string, val []byte)
	onEvict func(key string)
}

type storeEntry struct {
	key string
	val []byte
}

// storeStats is one consistent snapshot of the store's counters.
type storeStats struct {
	points, cap     int
	bytes, capBytes int64
	entryCap        int
	hits, misses    int64
	rejected        int64
	evictions       int64
}

func newPointStore(capacity int, capBytes int64, entryCap int) *pointStore {
	if capacity < 1 {
		capacity = 1
	}
	if capBytes < 0 {
		capBytes = 0
	}
	if entryCap < 0 {
		entryCap = 0
	}
	return &pointStore{
		cap: capacity, capBytes: capBytes, entryCap: entryCap,
		order: list.New(), byKey: make(map[string]*list.Element),
	}
}

// get returns the stored wire bytes for a point key and marks the entry
// most recently used. The empty key (an unkeyable point) never hits.
func (s *pointStore) get(key string) ([]byte, bool) {
	if key == "" {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.order.MoveToFront(el)
	return el.Value.(*storeEntry).val, true
}

// put inserts (or refreshes) a point's wire bytes, evicting least
// recently used entries past the entry or byte bound. Empty keys, empty
// values and values past the per-entry cap are ignored (a result too
// large to budget for must not evict the whole store to fit). The
// returns surface what happened — accepted (inserted or updated) and
// rejected (refused under the per-entry cap) — so callers that know
// which tenant produced the point can attribute store bytes and
// budget rejections to it.
func (s *pointStore) put(key string, val []byte) (accepted, rejected bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.rejected
	accepted = s.insertLocked(key, val)
	if accepted && s.onPut != nil {
		s.onPut(key, val)
	}
	return accepted, s.rejected > before
}

// seed is put without the onPut journal hook: the recovery path, where
// the bytes came FROM the journal and re-recording them would rewrite
// the log on every restart. Evictions (a store reopened with a smaller
// budget) still reach onEvict, so the durable image shrinks with the
// configuration.
func (s *pointStore) seed(key string, val []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insertLocked(key, val)
}

// insertLocked is the shared put body; true means the entry was
// accepted (inserted or updated).
func (s *pointStore) insertLocked(key string, val []byte) bool {
	if key == "" || len(val) == 0 {
		return false
	}
	if s.entryCap > 0 && len(val) > s.entryCap {
		s.rejected++
		return false
	}
	if el, ok := s.byKey[key]; ok {
		ent := el.Value.(*storeEntry)
		s.bytes += int64(len(val)) - int64(len(ent.val))
		ent.val = val
		s.order.MoveToFront(el)
		s.evictLocked()
		return true
	}
	s.byKey[key] = s.order.PushFront(&storeEntry{key: key, val: val})
	s.bytes += int64(len(val))
	s.evictLocked()
	return true
}

// evictLocked drops least-recently-used entries until both bounds hold.
// The most recent entry is never evicted, so a put can always land.
func (s *pointStore) evictLocked() {
	for s.order.Len() > 1 &&
		(s.order.Len() > s.cap || (s.capBytes > 0 && s.bytes > s.capBytes)) {
		last := s.order.Back()
		ent := last.Value.(*storeEntry)
		s.order.Remove(last)
		delete(s.byKey, ent.key)
		s.bytes -= int64(len(ent.val))
		s.evictions++
		if s.onEvict != nil {
			s.onEvict(ent.key)
		}
	}
}

// stats snapshots the store for /v1/status.
func (s *pointStore) stats() storeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return storeStats{
		points: s.order.Len(), cap: s.cap,
		bytes: s.bytes, capBytes: s.capBytes, entryCap: s.entryCap,
		hits: s.hits, misses: s.misses, rejected: s.rejected,
		evictions: s.evictions,
	}
}
