// Package hashtable implements the Robin-Hood open-addressing hash table
// the Precursor enclave stores its security metadata in.
//
// The paper (§4) picks Robin-Hood hashing (Celis et al., FOCS '85) because
// it balances speed and memory: open addressing avoids the pointer-chasing
// and TLB misses of chained tables, which matters for in-enclave lookups,
// and Robin-Hood's displacement rule keeps probe sequences short at high
// load factors. The table starts tiny and grows incrementally so the
// enclave's initial EPC footprint is a few pages, not a statically sized
// array (the property Table 1 measures).
//
// The table is guarded by an embedded read-write lock — the "completely
// in-enclave mechanism" of §4 — so concurrent trusted threads can serve
// gets in parallel.
package hashtable

import (
	"sync"
	"unsafe"
)

const (
	// initialBuckets is deliberately small: the enclave working set grows
	// with the data instead of being pre-allocated (§5.4).
	initialBuckets = 64
	// maxLoadPercent triggers growth; Robin-Hood stays fast up to ~90%,
	// 85% leaves headroom.
	maxLoadPercent = 85
)

// Accountant receives memory-footprint events so the enclave can charge
// allocations and accesses against the EPC. All methods may be nil-safe
// no-ops (a nil Accountant is valid).
type Accountant interface {
	// GrowTable reports that the table's backing memory changed from old
	// to new bytes.
	GrowTable(oldBytes, newBytes int)
	// TouchBucket reports an access to bucket index i of n total, with
	// entrySize bytes per bucket (for page-granular EPC residency).
	TouchBucket(i, n, entrySize int)
}

// Table is a Robin-Hood hash table mapping string keys to values of type V.
type Table[V any] struct {
	mu      sync.RWMutex
	slots   []slot[V]
	mask    uint64
	len     int
	acct    Accountant
	entSize int
}

type slot[V any] struct {
	hash uint64 // 0 means empty; hashes are forced non-zero
	key  string
	val  V
}

// New creates an empty table. entrySizeHint is the approximate bytes per
// entry reported to the accountant (key + metadata); pass 0 for a default.
func New[V any](acct Accountant, entrySizeHint int) *Table[V] {
	if entrySizeHint <= 0 {
		entrySizeHint = 64
	}
	t := &Table[V]{
		slots:   make([]slot[V], initialBuckets),
		mask:    initialBuckets - 1,
		acct:    acct,
		entSize: entrySizeHint,
	}
	if acct != nil {
		acct.GrowTable(0, initialBuckets*entrySizeHint)
	}
	return t
}

// Len returns the number of stored entries.
func (t *Table[V]) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.len
}

// Buckets returns the current bucket count (for footprint introspection).
func (t *Table[V]) Buckets() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.slots)
}

// Get returns the value for key.
func (t *Table[V]) Get(key string) (V, bool) {
	h := hashKey(key)
	t.mu.RLock()
	defer t.mu.RUnlock()
	var zero V
	idx, dist := h&t.mask, uint64(0)
	for {
		s := &t.slots[idx]
		if t.acct != nil {
			t.acct.TouchBucket(int(idx), len(t.slots), t.entSize)
		}
		if s.hash == 0 {
			return zero, false
		}
		// Robin-Hood early termination: if the resident entry is closer to
		// its home than we are to ours, the key cannot be further on.
		if probeDist(s.hash, idx, t.mask) < dist {
			return zero, false
		}
		if s.hash == h && s.key == key {
			return s.val, true
		}
		idx = (idx + 1) & t.mask
		dist++
	}
}

// GetBytes is Get for a key held as bytes — the enclave looks up the key
// slice of the opened control plaintext without materialising a string of
// it. The string view is sound because Get only hashes and compares the
// key and never retains it.
func (t *Table[V]) GetBytes(key []byte) (V, bool) {
	return t.Get(unsafe.String(unsafe.SliceData(key), len(key)))
}

// Put inserts or replaces the value for key, returning true if the key
// already existed.
func (t *Table[V]) Put(key string, val V) bool {
	h := hashKey(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	if (t.len+1)*100 > len(t.slots)*maxLoadPercent {
		t.growLocked()
	}
	return t.insertLocked(h, key, val)
}

func (t *Table[V]) insertLocked(h uint64, key string, val V) bool {
	idx, dist := h&t.mask, uint64(0)
	curHash, curKey, curVal := h, key, val
	inserted := false
	for {
		s := &t.slots[idx]
		if t.acct != nil {
			t.acct.TouchBucket(int(idx), len(t.slots), t.entSize)
		}
		if s.hash == 0 {
			s.hash, s.key, s.val = curHash, curKey, curVal
			t.len++
			return inserted
		}
		if s.hash == curHash && s.key == curKey {
			s.val = curVal
			return true
		}
		// Robin-Hood: steal the slot from a richer (closer-to-home) entry.
		if existing := probeDist(s.hash, idx, t.mask); existing < dist {
			s.hash, curHash = curHash, s.hash
			s.key, curKey = curKey, s.key
			s.val, curVal = curVal, s.val
			dist = existing
			// After the first swap we are placing displaced entries, which
			// by construction already exist — but the original key was
			// newly inserted unless matched above.
		}
		idx = (idx + 1) & t.mask
		dist++
	}
}

// Swap inserts or replaces the value for key, returning the previous
// value if the key existed. The store uses it to reclaim the old payload
// slot on updates.
func (t *Table[V]) Swap(key string, val V) (V, bool) {
	h := hashKey(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	// Fast path: replace in place if present.
	idx, dist := h&t.mask, uint64(0)
	for {
		s := &t.slots[idx]
		if t.acct != nil {
			t.acct.TouchBucket(int(idx), len(t.slots), t.entSize)
		}
		if s.hash == 0 || probeDist(s.hash, idx, t.mask) < dist {
			break
		}
		if s.hash == h && s.key == key {
			old := s.val
			s.val = val
			return old, true
		}
		idx = (idx + 1) & t.mask
		dist++
	}
	if (t.len+1)*100 > len(t.slots)*maxLoadPercent {
		t.growLocked()
	}
	t.insertLocked(h, key, val)
	var zero V
	return zero, false
}

// Upsert atomically inserts or conditionally replaces key's value. fn
// receives the current value (zero if absent) and whether the key
// exists, and returns the value to store plus whether to store it.
// Upsert returns whether a store happened, all under one lock hold.
// The value-log write path uses it to apply versioned records newest-
// wins, and value-log GC uses it as a conditional swap: relocate an
// entry's pointer only if the entry is still the one whose record was
// copied, so a concurrent put is never clobbered by a stale relocation.
func (t *Table[V]) Upsert(key string, fn func(cur V, exists bool) (V, bool)) bool {
	h := hashKey(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, dist := h&t.mask, uint64(0)
	for {
		s := &t.slots[idx]
		if t.acct != nil {
			t.acct.TouchBucket(int(idx), len(t.slots), t.entSize)
		}
		if s.hash == 0 || probeDist(s.hash, idx, t.mask) < dist {
			break
		}
		if s.hash == h && s.key == key {
			val, ok := fn(s.val, true)
			if ok {
				s.val = val
			}
			return ok
		}
		idx = (idx + 1) & t.mask
		dist++
	}
	var zero V
	val, ok := fn(zero, false)
	if !ok {
		return false
	}
	if (t.len+1)*100 > len(t.slots)*maxLoadPercent {
		t.growLocked()
	}
	t.insertLocked(h, key, val)
	return true
}

// DeleteIf removes key only when cond approves of its current value,
// returning whether a removal happened. The value-log replay path uses
// it to apply tombstones newest-wins: a tombstone must not remove an
// entry whose record is newer than the tombstone itself.
func (t *Table[V]) DeleteIf(key string, cond func(cur V) bool) bool {
	h := hashKey(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, dist := h&t.mask, uint64(0)
	for {
		s := &t.slots[idx]
		if t.acct != nil {
			t.acct.TouchBucket(int(idx), len(t.slots), t.entSize)
		}
		if s.hash == 0 || probeDist(s.hash, idx, t.mask) < dist {
			return false
		}
		if s.hash == h && s.key == key {
			if !cond(s.val) {
				return false
			}
			t.backwardShiftLocked(idx)
			t.len--
			return true
		}
		idx = (idx + 1) & t.mask
		dist++
	}
}

// Delete removes key, returning whether it was present. It uses
// backward-shift deletion, which preserves Robin-Hood probe invariants
// without tombstones.
func (t *Table[V]) Delete(key string) bool {
	h := hashKey(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, dist := h&t.mask, uint64(0)
	for {
		s := &t.slots[idx]
		if s.hash == 0 || probeDist(s.hash, idx, t.mask) < dist {
			return false
		}
		if s.hash == h && s.key == key {
			t.backwardShiftLocked(idx)
			t.len--
			return true
		}
		idx = (idx + 1) & t.mask
		dist++
	}
}

func (t *Table[V]) backwardShiftLocked(idx uint64) {
	var zero slot[V]
	for {
		next := (idx + 1) & t.mask
		n := &t.slots[next]
		if n.hash == 0 || probeDist(n.hash, next, t.mask) == 0 {
			t.slots[idx] = zero
			return
		}
		t.slots[idx] = *n
		idx = next
	}
}

// Clear removes every entry, keeping the current bucket array (and its
// accounted footprint).
func (t *Table[V]) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	var zero slot[V]
	for i := range t.slots {
		t.slots[i] = zero
	}
	t.len = 0
}

// Range calls fn for every entry until fn returns false. The table lock is
// held in read mode for the duration.
func (t *Table[V]) Range(fn func(key string, val V) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i := range t.slots {
		if t.slots[i].hash != 0 {
			if !fn(t.slots[i].key, t.slots[i].val) {
				return
			}
		}
	}
}

func (t *Table[V]) growLocked() {
	old := t.slots
	oldBytes := len(old) * t.entSize
	t.slots = make([]slot[V], len(old)*2)
	t.mask = uint64(len(t.slots) - 1)
	t.len = 0
	if t.acct != nil {
		t.acct.GrowTable(oldBytes, len(t.slots)*t.entSize)
	}
	for i := range old {
		if old[i].hash != 0 {
			t.insertLocked(old[i].hash, old[i].key, old[i].val)
		}
	}
}

// probeDist is the distance of the entry with the given hash, currently at
// index idx, from its home bucket.
func probeDist(hash, idx, mask uint64) uint64 {
	return (idx + mask + 1 - (hash & mask)) & mask
}

// hashKey is FNV-1a 64, with zero remapped so 0 can mark empty slots.
func hashKey(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	if h == 0 {
		return 1
	}
	return h
}
