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
	"strings"
	"sync"
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
//
// The table owns its keys. Every method accepts a key that may be a view of
// caller memory, valid only for the call — the enclave looks keys up and
// stores them straight from the bytes of an opened control or a log record
// — and clones it only when it inserts a new key. That clone is the only
// copy the table keeps; the keys Range and Key hand out are it.
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
	if idx, _, ok := t.find(h, key); ok {
		return t.slots[idx].val, true
	}
	var zero V
	return zero, false
}

// Key returns the table's own copy of key, if key is present: a string
// that stays valid however long the caller keeps it, for a caller that
// holds only a view.
func (t *Table[V]) Key(key string) (string, bool) {
	h := hashKey(key)
	t.mu.RLock()
	defer t.mu.RUnlock()
	if idx, _, ok := t.find(h, key); ok {
		return t.slots[idx].key, true
	}
	return "", false
}

// Put inserts or replaces the value for key, returning true if the key
// already existed.
func (t *Table[V]) Put(key string, val V) bool {
	_, existed := t.Swap(key, val)
	return existed
}

// Swap inserts or replaces the value for key, returning the previous
// value if the key existed. The store uses it to reclaim the old payload
// slot on updates.
func (t *Table[V]) Swap(key string, val V) (V, bool) {
	h := hashKey(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, dist, ok := t.find(h, key)
	if ok {
		s := &t.slots[idx]
		old := s.val
		s.val = val
		return old, true
	}
	t.placeLocked(idx, dist, h, key, val)
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
	idx, dist, ok := t.find(h, key)
	if ok {
		s := &t.slots[idx]
		val, store := fn(s.val, true)
		if store {
			s.val = val
		}
		return store
	}
	var zero V
	val, store := fn(zero, false)
	if store {
		t.placeLocked(idx, dist, h, key, val)
	}
	return store
}

// DeleteIf removes key only when cond approves of its current value,
// returning whether a removal happened. The value-log replay path uses
// it to apply tombstones newest-wins: a tombstone must not remove an
// entry whose record is newer than the tombstone itself.
func (t *Table[V]) DeleteIf(key string, cond func(cur V) bool) bool {
	h := hashKey(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, _, ok := t.find(h, key)
	if !ok || !cond(t.slots[idx].val) {
		return false
	}
	t.backwardShiftLocked(idx)
	return true
}

// Delete removes key, returning whether it was present. It uses
// backward-shift deletion, which preserves Robin-Hood probe invariants
// without tombstones.
func (t *Table[V]) Delete(key string) bool {
	return t.DeleteIf(key, func(V) bool { return true })
}

// find probes for key from its home bucket, charging every bucket it
// reads, under either lock. It stops at key's slot (ok) or at the first
// slot that proves key absent — empty, or holding an entry closer to its
// home than key would be (Robin-Hood early termination) — which is where
// key belongs, dist from home.
func (t *Table[V]) find(h uint64, key string) (idx, dist uint64, ok bool) {
	idx = h & t.mask
	for {
		t.touch(idx)
		s := &t.slots[idx]
		if s.hash == 0 || probeDist(s.hash, idx, t.mask) < dist {
			return idx, dist, false
		}
		if s.hash == h && s.key == key {
			return idx, dist, true
		}
		idx = (idx + 1) & t.mask
		dist++
	}
}

// placeLocked stores a key that find proved absent, stopping at slot idx,
// dist from home: the key is cloned — the table's one copy — and placed in
// the same probe pass, unless the table must grow first.
func (t *Table[V]) placeLocked(idx, dist, h uint64, key string, val V) {
	key = strings.Clone(key)
	if (t.len+1)*100 > len(t.slots)*maxLoadPercent {
		t.growLocked()
		idx, dist = h&t.mask, 0
		t.touch(idx)
	}
	t.insertLocked(idx, dist, h, key, val)
}

// insertLocked places an entry whose key is not in the table, Robin-Hood
// style, from slot idx, dist from its home; the caller has charged slot
// idx. Every slot between home and idx holds an entry at least as far from
// its own home, so the walk from there is the walk from home.
func (t *Table[V]) insertLocked(idx, dist, h uint64, key string, val V) {
	cur := slot[V]{hash: h, key: key, val: val}
	for {
		s := &t.slots[idx]
		if s.hash == 0 {
			*s = cur
			t.len++
			return
		}
		// Robin-Hood: steal the slot from a richer (closer-to-home) entry
		// and carry on placing the displaced one.
		if existing := probeDist(s.hash, idx, t.mask); existing < dist {
			*s, cur = cur, *s
			dist = existing
		}
		idx = (idx + 1) & t.mask
		dist++
		t.touch(idx)
	}
}

// backwardShiftLocked empties slot idx and pulls each following entry
// that is not in its home bucket one slot back, charging every bucket it
// reads.
func (t *Table[V]) backwardShiftLocked(idx uint64) {
	var zero slot[V]
	for {
		next := (idx + 1) & t.mask
		t.touch(next)
		n := &t.slots[next]
		if n.hash == 0 || probeDist(n.hash, next, t.mask) == 0 {
			t.slots[idx] = zero
			t.len--
			return
		}
		t.slots[idx] = *n
		idx = next
	}
}

// touch charges an access to bucket idx.
func (t *Table[V]) touch(idx uint64) {
	if t.acct != nil {
		t.acct.TouchBucket(int(idx), len(t.slots), t.entSize)
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
		if s := &old[i]; s.hash != 0 {
			home := s.hash & t.mask
			t.touch(home)
			t.insertLocked(home, 0, s.hash, s.key, s.val)
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
