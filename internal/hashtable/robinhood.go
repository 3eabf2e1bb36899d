// Package hashtable implements the Robin-Hood open-addressing hash table
// the Precursor enclave stores its security metadata in.
//
// The paper (§4) picks Robin-Hood hashing (Celis et al., FOCS '85) because
// it balances speed and memory: open addressing avoids the pointer-chasing
// and TLB misses of chained tables, which matters for in-enclave lookups,
// and Robin-Hood's displacement rule keeps probe sequences short at high
// load factors. The table starts tiny and grows incrementally so the
// enclave's initial EPC footprint is a few pages, not a statically sized
// array (the property Table 1 measures). It grows by half, not by double:
// its bucket counts run 64, 96, 128, 192, 256, …, a power of two and three
// times one in turn, so a table that has just grown is at least 57 % full
// where a doubled one was 43 % full, and the enclave charges up to a
// quarter fewer buckets for the same keys. A count that is not a power of
// two has no mask: a key's home bucket is its hash tag, mixed, scaled onto
// the bucket count by a multiply-shift.
//
// The table is four flat parts rather than a graph of Go objects:
//
//   - the index, one array of 8-byte slots, each a hash tag and a record
//     number: the only part displacement and growth move;
//   - the records, each key's value held by value beside its key's 4-byte
//     place in the arena, in fixed-size chunks that never move; a deleted
//     key's record is reused through a free list;
//   - the columns, optional per-record state some tables keep beside the
//     records (NewColumn): chunks that line up with the record chunks,
//     indexed by the record number. A column that is not made costs nothing,
//     so a field only some tables need is a column, not a field of every
//     record;
//   - the key arena, append-only chunks of length-prefixed keys. A chunk's
//     bytes are never rewritten, so a key Key or Range hands out stays valid
//     however long its holder keeps it. Once deleted keys hold more arena
//     bytes than present ones, and more than a chunk, the next new key first
//     copies the present keys into fresh chunks and leaves the old ones to
//     the garbage collector.
//
// The table is guarded by an embedded read-write lock — the "completely
// in-enclave mechanism" of §4 — so concurrent trusted threads can serve
// gets in parallel. A get copies its value out under that lock: the caller
// works on its own copy. Read, Edit, DeleteIf and Range hand their callback
// the record number under that same lock hold, so a caller reads and
// writes a record and its columns as one.
package hashtable

import (
	"encoding/binary"
	"sync"
	"unsafe"
)

const (
	// initialBuckets is deliberately small: the enclave working set grows
	// with the data instead of being pre-allocated (§5.4). It is a power of
	// two, the first rung of the growth ladder (see nextBuckets).
	initialBuckets = 64
	// maxLoadPercent triggers growth; Robin-Hood stays fast up to ~90%,
	// 85% leaves headroom. Growth steps of ×3/2 and ×4/3 leave a grown
	// table at least 85/1.5 ≈ 57 % full.
	maxLoadPercent = 85
	// A record chunk, and each column chunk beside it, holds recordChunk
	// cells: 315 records of the enclave's 52 bytes take 16 380 B of the
	// 16 384 B size class (the 256 a power of two suggests would take
	// 13 312 B of the 13 568 B class, and fill no class better).
	recordChunk = 315
	// A key arena chunk starts at arenaMinChunk bytes and doubles up to
	// arenaMaxChunk; a longer key gets a chunk of its own. A key's place is
	// its chunk's index and its offset in the chunk, 16 bits each: an offset
	// in a chunk of at most 64 KiB fits, a longer key starts its own chunk at
	// offset 0, and the arena holds at most arenaMaxChunks chunks — about
	// 4 GiB of keys — and refuses, loudly, to make one more.
	arenaMinChunk  = 1 << 10
	arenaMaxChunk  = 64 << 10
	arenaMaxChunks = 1 << 16
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
// — and copies it into the key arena only when it inserts a new key. That
// copy is the only one the table keeps; the keys Range and Key hand out are
// views of it.
type Table[V any] struct {
	mu      sync.RWMutex
	slots   []slot
	n       uint64 // len(slots), the bucket count
	len     int
	recs    []*[recordChunk]record[V]
	next    uint32   // records ever handed out
	free    []uint32 // deleted keys' record numbers, reused first
	cols    []column // a chunk each beside every record chunk
	keys    arena
	acct    Accountant
	entSize int
}

// slot is one index bucket: the low 32 bits of its key's hash — all a home
// bucket and a probe distance need (see home) — and its record's number
// plus one, so that 0 marks an empty bucket.
type slot struct {
	tag uint32
	rec uint32
}

// record is a present key's value and the place of its key in the arena.
type record[V any] struct {
	key keyRef
	val V
}

// New creates an empty table. entrySizeHint is the approximate bytes per
// entry reported to the accountant (key + metadata); pass 0 for a default.
func New[V any](acct Accountant, entrySizeHint int) *Table[V] {
	if entrySizeHint <= 0 {
		entrySizeHint = 64
	}
	t := &Table[V]{
		slots:   make([]slot, initialBuckets),
		n:       initialBuckets,
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

// Get returns a copy of the value for key.
func (t *Table[V]) Get(key string) (V, bool) {
	h := hashKey(key)
	t.mu.RLock()
	defer t.mu.RUnlock()
	if _, _, r := t.find(h, key); r != nil {
		return r.val, true
	}
	var zero V
	return zero, false
}

// Read calls fn with a copy of key's value and its record number, under the
// read lock, if key is present, and reports whether it was.
func (t *Table[V]) Read(key string, fn func(val V, rec uint32)) bool {
	h := hashKey(key)
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, _, r := t.find(h, key)
	if r != nil {
		fn(r.val, t.slots[idx].rec-1)
	}
	return r != nil
}

// Key returns the table's own copy of key, if key is present: a string
// that stays valid however long the caller keeps it, for a caller that
// holds only a view.
func (t *Table[V]) Key(key string) (string, bool) {
	h := hashKey(key)
	t.mu.RLock()
	defer t.mu.RUnlock()
	if _, _, r := t.find(h, key); r != nil {
		return t.keys.key(r.key), true
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
func (t *Table[V]) Swap(key string, val V) (old V, existed bool) {
	t.Edit(key, func(v *V, _ uint32, exists bool) bool {
		old, existed, *v = *v, exists, val
		return true
	})
	return old, existed
}

// Edit finds key under the write lock and calls fn with its value, its
// record number and whether it exists, and returns fn's answer. For a
// present key fn edits the value and the record's columns in place. For an
// absent key it is handed the zero record the key would take, columns zero,
// and the key is inserted with what fn leaves there only if fn answers
// true. The value-log write path edits newest-wins by sequence number, and
// value-log GC relocates an entry's pointer only if the entry is still the
// one whose record was copied, so a concurrent put is never clobbered.
func (t *Table[V]) Edit(key string, fn func(val *V, rec uint32, exists bool) bool) bool {
	h := hashKey(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, dist, r := t.find(h, key)
	if r != nil {
		return fn(&r.val, t.slots[idx].rec-1, true)
	}
	n := t.spareLocked()
	if !fn(&t.record(n+1).val, n, false) {
		t.zeroLocked(n)
		return false
	}
	t.placeLocked(idx, dist, h, key, n)
	return true
}

// DeleteIf removes key only when cond approves of its current value and
// record number, returning whether a removal happened. The value-log replay
// path uses it to apply tombstones newest-wins: a tombstone must not remove
// an entry whose record is newer than the tombstone itself.
func (t *Table[V]) DeleteIf(key string, cond func(val V, rec uint32) bool) bool {
	h := hashKey(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, _, r := t.find(h, key)
	if r == nil || !cond(r.val, t.slots[idx].rec-1) {
		return false
	}
	n := t.slots[idx].rec - 1
	t.keys.drop(r.key)
	t.zeroLocked(n)
	t.free = append(t.free, n)
	t.backwardShiftLocked(idx)
	return true
}

// Delete removes key, returning whether it was present. It uses
// backward-shift deletion, which preserves Robin-Hood probe invariants
// without tombstones.
func (t *Table[V]) Delete(key string) bool {
	return t.DeleteIf(key, func(V, uint32) bool { return true })
}

// find probes for key from its home bucket, charging every bucket it
// reads, under either lock. It stops at key's bucket, returning its record,
// or at the first bucket that proves key absent — empty, or holding an
// entry closer to its home than key would be (Robin-Hood early
// termination) — which is where key belongs, dist from home.
func (t *Table[V]) find(h uint64, key string) (idx, dist uint64, r *record[V]) {
	tag := uint32(h)
	idx = home(tag, t.n)
	for {
		t.touch(idx)
		s := t.slots[idx]
		if s.rec == 0 || probeDist(s.tag, idx, t.n) < dist {
			return idx, dist, nil
		}
		if s.tag == tag {
			if r = t.record(s.rec); t.keys.equal(r.key, key) {
				return idx, dist, r
			}
		}
		if idx++; idx == t.n {
			idx = 0
		}
		dist++
	}
}

// record returns the record a slot's rec field names.
func (t *Table[V]) record(rec uint32) *record[V] {
	n := rec - 1
	return &t.recs[n/recordChunk][n%recordChunk]
}

// spareLocked returns the number of the record a new key takes — the last
// one freed, else the first never used, its chunks made if need be —
// without taking it. Its value and columns are zero.
func (t *Table[V]) spareLocked() uint32 {
	if k := len(t.free); k > 0 {
		return t.free[k-1]
	}
	if int(t.next/recordChunk) == len(t.recs) {
		t.recs = append(t.recs, new([recordChunk]record[V]))
		for _, c := range t.cols {
			c.grow()
		}
	}
	return t.next
}

// zeroLocked zeroes record n and its columns.
func (t *Table[V]) zeroLocked(n uint32) {
	*t.record(n + 1) = record[V]{}
	for _, c := range t.cols {
		c.zero(n)
	}
}

// placeLocked stores a key that find proved absent, stopping at bucket idx,
// dist from home, in record n, the spare one (spareLocked): the key is
// copied into the arena — the table's one copy — and placed in the same
// probe pass, unless the table must grow first.
func (t *Table[V]) placeLocked(idx, dist, h uint64, key string, n uint32) {
	if t.keys.dead > max(t.keys.live, arenaMaxChunk) {
		t.compactKeysLocked()
	}
	if k := len(t.free); k > 0 {
		t.free = t.free[:k-1]
	} else {
		t.next++
	}
	s := slot{tag: uint32(h), rec: n + 1}
	t.record(s.rec).key = t.keys.add(key)
	if (t.len+1)*100 > len(t.slots)*maxLoadPercent {
		t.growLocked()
		idx, dist = home(s.tag, t.n), 0
		t.touch(idx)
	}
	t.insertLocked(idx, dist, s)
}

// insertLocked places a slot whose key is not in the table, Robin-Hood
// style, from bucket idx, dist from its home; the caller has charged bucket
// idx. Every bucket between home and idx holds an entry at least as far
// from its own home, so the walk from there is the walk from home.
func (t *Table[V]) insertLocked(idx, dist uint64, cur slot) {
	for {
		s := &t.slots[idx]
		if s.rec == 0 {
			*s = cur
			t.len++
			return
		}
		// Robin-Hood: steal the bucket from a richer (closer-to-home) entry
		// and carry on placing the displaced one.
		if existing := probeDist(s.tag, idx, t.n); existing < dist {
			*s, cur = cur, *s
			dist = existing
		}
		if idx++; idx == t.n {
			idx = 0
		}
		dist++
		t.touch(idx)
	}
}

// backwardShiftLocked empties bucket idx and pulls each following entry
// that is not in its home bucket one bucket back, charging every bucket it
// reads.
func (t *Table[V]) backwardShiftLocked(idx uint64) {
	for {
		next := idx + 1
		if next == t.n {
			next = 0
		}
		t.touch(next)
		n := t.slots[next]
		if n.rec == 0 || probeDist(n.tag, next, t.n) == 0 {
			t.slots[idx] = slot{}
			t.len--
			return
		}
		t.slots[idx] = n
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
// accounted footprint). Keys handed out before stay valid.
func (t *Table[V]) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.slots)
	t.len = 0
	t.recs, t.next, t.free = nil, 0, nil
	for _, c := range t.cols {
		c.reset()
	}
	t.keys = arena{}
}

// Range calls fn for every entry, with its record number, until fn returns
// false. The table lock is held in read mode for the duration.
func (t *Table[V]) Range(fn func(key string, val V, rec uint32) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, s := range t.slots {
		if s.rec != 0 {
			r := t.record(s.rec)
			if !fn(t.keys.key(r.key), r.val, s.rec-1) {
				return
			}
		}
	}
}

// growLocked moves the index to the next bucket count of the ladder.
func (t *Table[V]) growLocked() {
	old := t.slots
	oldBytes := len(old) * t.entSize
	t.slots = make([]slot, nextBuckets(len(old)))
	t.n = uint64(len(t.slots))
	t.len = 0
	if t.acct != nil {
		t.acct.GrowTable(oldBytes, len(t.slots)*t.entSize)
	}
	for _, s := range old {
		if s.rec != 0 {
			h := home(s.tag, t.n)
			t.touch(h)
			t.insertLocked(h, 0, s)
		}
	}
}

// nextBuckets is the bucket count a table of n buckets grows to: ×3/2 from a
// power of two, ×4/3 from three times one, so the counts run 64, 96, 128,
// 192, 256, … and a growth at maxLoadPercent leaves the table at least
// maxLoadPercent/1.5 full.
func nextBuckets(n int) int {
	if n&(n-1) == 0 {
		return n + n/2
	}
	return n + n/3
}

// compactKeysLocked copies every present key into fresh arena chunks. The
// old chunks are not written again: views of them stay valid, and the
// garbage collector takes each once no view holds it.
func (t *Table[V]) compactKeysLocked() {
	old := t.keys
	t.keys = arena{}
	for _, s := range t.slots {
		if s.rec != 0 {
			r := t.record(s.rec)
			r.key = t.keys.add(old.key(r.key))
		}
	}
}

// home is the home bucket of hash tag tag among n buckets: the tag, mixed by
// a multiplicative hash, scaled onto [0, n) by a multiply-shift. The mix is
// not optional: FNV-1a gives keys that differ only in their last bytes
// nearby low bits, which a bare multiply-shift keeps nearby — sequential
// keys then share buckets and their probes run long. The mix does not depend
// on n, so keys keep their order of home buckets from one size to the next.
func home(tag uint32, n uint64) uint64 {
	return uint64(tag*0x9E3779B1) * n >> 32
}

// probeDist is the distance of the entry with the given hash tag, currently
// at index idx of n buckets, from its home bucket.
func probeDist(tag uint32, idx, n uint64) uint64 {
	h := home(tag, n)
	if idx < h {
		idx += n
	}
	return idx - h
}

// hashKey is FNV-1a 64, with zero remapped to one.
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

// keyRef is a key's place in the arena: its chunk's index in the high 16
// bits, the offset of its length prefix in the low 16 (see arenaMaxChunks).
type keyRef uint32

// arena is the table's append-only key store.
type arena struct {
	chunks     [][]byte // each filled to its length, never past its capacity
	live, dead int      // bytes of present and of deleted keys, prefixes included
}

// add appends key and returns its place.
func (a *arena) add(key string) keyRef {
	n := uvarintLen(len(key)) + len(key)
	last := len(a.chunks) - 1
	if last < 0 || cap(a.chunks[last])-len(a.chunks[last]) < n {
		if last+1 == arenaMaxChunks {
			panic("hashtable: key arena full: 65 536 chunks")
		}
		size := arenaMinChunk
		if last >= 0 {
			size = min(2*cap(a.chunks[last]), arenaMaxChunk)
		}
		a.chunks = append(a.chunks, make([]byte, 0, max(size, n)))
		last++
	}
	c := a.chunks[last]
	ref := keyRef(last<<16 | len(c))
	a.chunks[last] = append(binary.AppendUvarint(c, uint64(len(key))), key...)
	a.live += n
	return ref
}

// key returns a view of the key at ref.
func (a *arena) key(ref keyRef) string {
	b := a.chunks[ref>>16][ref&0xffff:]
	n, w := int(b[0]), 1
	if n >= 0x80 {
		u, uw := binary.Uvarint(b)
		n, w = int(u), uw
	}
	return unsafe.String(unsafe.SliceData(b[w:]), n)
}

// equal reports whether the key at ref is key: for a key shorter than 128
// bytes, one prefix byte and the bytes themselves, without decoding.
func (a *arena) equal(ref keyRef, key string) bool {
	c, off, n := a.chunks[ref>>16], int(ref&0xffff), len(key)
	if n < 0x80 {
		return off+n < len(c) && c[off] == byte(n) && string(c[off+1:off+1+n]) == key
	}
	return a.key(ref) == key
}

// drop counts the key at ref as deleted.
func (a *arena) drop(ref keyRef) {
	n := len(a.key(ref))
	n += uvarintLen(n)
	a.live -= n
	a.dead += n
}

// uvarintLen is the length of n's uvarint encoding.
func uvarintLen(n int) int {
	w := 1
	for ; n >= 0x80; n >>= 7 {
		w++
	}
	return w
}
