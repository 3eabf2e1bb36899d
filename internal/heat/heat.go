// Package heat tracks workload heat: which keys are hot, how load
// spreads over the hash ring, and how fast each op kind is arriving.
//
// The core is a Space-Saving top-K heavy-hitter sketch over hashed key
// ids — never plaintext keys, so exporting a heat snapshot leaks no
// key material out of the enclave boundary — plus per-shard load
// accounting: op-rate EWMAs by kind, a key-range histogram aligned
// with the consistent-hash ring, bytes in/out, and batch fill levels.
//
// Everything on the record path is allocation-free at steady state
// (ShieldStore-style enclave stores show in-enclave accounting must
// not churn the heap or EPC pressure eats the win), so a Collector can
// sit on the server apply path inside the enclave and on the cluster
// client routing path without showing up in allocation profiles.
package heat

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Kind labels the operation being recorded.
type Kind uint8

// Operation kinds accepted by Collector.Record.
const (
	KindPut Kind = iota
	KindGet
	KindDelete
	kindCount
)

// String returns the metric-label spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindPut:
		return "put"
	case KindGet:
		return "get"
	case KindDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// HashKey maps a key — a string, or the []byte a wire decoder hands out —
// to its hashed id: FNV-1a 64 finished with a splitmix64 avalanche. It is
// also the cluster ring's placement hash (internal/cluster), so a heat
// snapshot's range buckets line up with ring arcs and a hot bucket names
// a hot slice of the ring. FNV-1a is stable across processes and Go
// versions, unlike hash/maphash, which is the point: every client must
// agree on placement. The finisher is there because raw FNV-1a barely
// mixes its high bits on short, similar strings ("shard-0#17") and the
// ring orders points by the full 64-bit value. A manual loop (not
// hash/fnv) keeps the record and routing paths allocation-free.
func HashKey[K string | []byte](key K) uint64 {
	x := uint64(0xcbf29ce484222325)
	for i := 0; i < len(key); i++ {
		x ^= uint64(key[i])
		x *= 0x100000001b3
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// TopEntry is one heavy hitter reported by a sketch or snapshot:
// the hashed key id, its estimated count, and the Space-Saving error
// floor (the true count is in [Count-Err, Count]).
type TopEntry struct {
	Hash  uint64 `json:"hash"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err"`
}

// MarshalJSON renders the entry with its hash as a 16-digit hex
// string: uint64 hashes exceed JSON's interoperable integer range
// (2^53), and hex ids are what operators grep for.
func (e TopEntry) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"hash":"%016x","count":%d,"err":%d}`, e.Hash, e.Count, e.Err)), nil
}

// UnmarshalJSON parses the hex-hash form MarshalJSON emits.
func (e *TopEntry) UnmarshalJSON(data []byte) error {
	var raw struct {
		Hash  string `json:"hash"`
		Count uint64 `json:"count"`
		Err   uint64 `json:"err"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	h, err := strconv.ParseUint(raw.Hash, 16, 64)
	if err != nil {
		return fmt.Errorf("heat: bad hash %q: %w", raw.Hash, err)
	}
	e.Hash, e.Count, e.Err = h, raw.Count, raw.Err
	return nil
}

// slot is one sketch counter, stored in a min-heap ordered by count so
// the victim for a new key is always at the root.
type slot struct {
	hash  uint64
	count uint64
	err   uint64
}

// TopK is a Space-Saving heavy-hitter sketch with a fixed capacity of
// k counters. Observations of a tracked hash increment its counter; a
// new hash evicts the minimum counter, inheriting its count as the
// error floor. Updates are O(log k) and allocation-free at steady
// state: the heap is a fixed slice and the index map only ever holds
// uint64 keys, so evict-and-replace reuses map cells.
//
// A TopK is not safe for concurrent use; Collector stripes them.
type TopK struct {
	k     int
	slots []slot
	index map[uint64]int32 // hash -> heap position
}

// NewTopK returns a sketch tracking up to k heavy hitters (k
// clamped to at least 1).
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{
		k:     k,
		slots: make([]slot, 0, k),
		index: make(map[uint64]int32, k),
	}
}

// K returns the sketch capacity.
func (t *TopK) K() int { return t.k }

// Len returns the number of hashes currently tracked.
func (t *TopK) Len() int { return len(t.slots) }

// Observe records one occurrence of hash.
func (t *TopK) Observe(hash uint64) { t.ObserveN(hash, 1) }

// ObserveN records n occurrences of hash.
func (t *TopK) ObserveN(hash uint64, n uint64) {
	if n == 0 {
		return
	}
	if i, ok := t.index[hash]; ok {
		t.slots[i].count += n
		t.siftDown(int(i))
		return
	}
	if len(t.slots) < t.k {
		t.slots = append(t.slots, slot{hash: hash, count: n})
		i := len(t.slots) - 1
		t.index[hash] = int32(i)
		t.siftUp(i)
		return
	}
	// Evict the minimum: the newcomer inherits its count as the error
	// floor (the Space-Saving rule), so Count-Err still lower-bounds
	// the true count.
	victim := &t.slots[0]
	delete(t.index, victim.hash)
	victim.err = victim.count
	victim.count += n
	victim.hash = hash
	t.index[hash] = 0
	t.siftDown(0)
}

// Reset empties the sketch without releasing its storage.
func (t *TopK) Reset() {
	for h := range t.index {
		delete(t.index, h)
	}
	t.slots = t.slots[:0]
}

// AppendTo appends the sketch's entries to dst (unsorted) and returns
// the extended slice; pass a slice with spare capacity to avoid
// allocation.
func (t *TopK) AppendTo(dst []TopEntry) []TopEntry {
	for _, s := range t.slots {
		dst = append(dst, TopEntry{Hash: s.hash, Count: s.count, Err: s.err})
	}
	return dst
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.slots[parent].count <= t.slots[i].count {
			return
		}
		t.swap(i, parent)
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.slots)
	for {
		least := i
		if l := 2*i + 1; l < n && t.slots[l].count < t.slots[least].count {
			least = l
		}
		if r := 2*i + 2; r < n && t.slots[r].count < t.slots[least].count {
			least = r
		}
		if least == i {
			return
		}
		t.swap(i, least)
		i = least
	}
}

func (t *TopK) swap(a, b int) {
	t.slots[a], t.slots[b] = t.slots[b], t.slots[a]
	t.index[t.slots[a].hash] = int32(a)
	t.index[t.slots[b].hash] = int32(b)
}

// MergeTop merges heavy-hitter entry lists (e.g. per-stripe sketches
// or per-shard snapshots) into the top k of their union: counts and
// error floors for the same hash sum — the standard Space-Saving
// merge, which keeps [Count-Err, Count] a valid bound — then the
// union is sorted by count descending and truncated to k.
func MergeTop(k int, lists ...[]TopEntry) []TopEntry {
	merged := make(map[uint64]TopEntry)
	for _, list := range lists {
		for _, e := range list {
			m := merged[e.Hash]
			m.Hash = e.Hash
			m.Count += e.Count
			m.Err += e.Err
			merged[e.Hash] = m
		}
	}
	out := make([]TopEntry, 0, len(merged))
	for _, e := range merged {
		out = append(out, e)
	}
	sortTop(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// sortTop orders entries by count descending (hash ascending on ties,
// so output is deterministic). Insertion sort: lists are sketch-sized.
func sortTop(entries []TopEntry) {
	for i := 1; i < len(entries); i++ {
		e := entries[i]
		j := i - 1
		for j >= 0 && (entries[j].Count < e.Count || (entries[j].Count == e.Count && entries[j].Hash > e.Hash)) {
			entries[j+1] = entries[j]
			j--
		}
		entries[j+1] = e
	}
}

// Skew summarizes imbalance over a set of load counters (range
// buckets, shard op counts): the coefficient of variation and the
// max/mean ratio. A perfectly balanced load has CV 0 and MaxMean 1.
type Skew struct {
	CV      float64 `json:"cv"`
	MaxMean float64 `json:"max_mean"`
}

// SkewOf computes the imbalance of counts. All-zero or empty input
// yields the balanced Skew{0, 1}.
func SkewOf(counts []uint64) Skew {
	if len(counts) == 0 {
		return Skew{MaxMean: 1}
	}
	var sum, max float64
	for _, c := range counts {
		f := float64(c)
		sum += f
		if f > max {
			max = f
		}
	}
	mean := sum / float64(len(counts))
	if mean == 0 {
		return Skew{MaxMean: 1}
	}
	var varsum float64
	for _, c := range counts {
		d := float64(c) - mean
		varsum += d * d
	}
	return Skew{
		CV:      math.Sqrt(varsum/float64(len(counts))) / mean,
		MaxMean: max / mean,
	}
}

// batchFillBuckets are the upper bounds (inclusive) of the batch
// fill-level histogram; the last bucket is unbounded.
var batchFillBuckets = [...]int{1, 2, 4, 8, 16, 32}

// BatchFillBucketBound returns the inclusive upper bound of batch
// fill-level bucket i, or -1 for the final overflow bucket. The bucket
// count is BatchFillBucketCount.
func BatchFillBucketBound(i int) int {
	if i < len(batchFillBuckets) {
		return batchFillBuckets[i]
	}
	return -1
}

// BatchFillBucketCount is the number of batch fill-level buckets
// (including the overflow bucket).
const BatchFillBucketCount = len(batchFillBuckets) + 1

// DefaultRangeBuckets is the key-range histogram width used when
// Config.RangeBuckets <= 0: 32 arcs over the 64-bit ring keeps the
// exported metric family small while still localizing a hot range to
// ~3% of the keyspace.
const DefaultRangeBuckets = 32

// DefaultTopK is the sketch capacity used when Config.K <= 0.
const DefaultTopK = 64

// rateTau is the EWMA time constant for op rates: a snapshot taken
// after the workload stops decays the reported rate with ~10 s
// half-life-ish smoothing rather than flatlining instantly.
const rateTau = 10 * time.Second

// Config configures a Collector.
type Config struct {
	// K is the heavy-hitter sketch capacity (DefaultTopK when <= 0).
	// Each stripe gets its own sketch of this size; snapshots merge
	// them and report the top K of the union.
	K int
	// RangeBuckets is the key-range histogram width
	// (DefaultRangeBuckets when <= 0); rounded up to a power of two so
	// bucketing is a shift of the hash's top bits.
	RangeBuckets int
	// Stripes is the number of independently-locked sketch stripes
	// (default 8, clamped to at least 1). Match the server worker
	// count to keep the record path contention-free.
	Stripes int
}

// stripe is one independently-locked sketch. Padded to a cache line
// so two workers on adjacent stripes don't false-share.
type stripe struct {
	mu  sync.Mutex
	top *TopK
	_   [40]byte
}

// Collector accumulates workload heat for one vantage point (a server
// shard's apply path, or a cluster client's routing path). All record
// methods are safe for concurrent use, allocation-free at steady
// state, and safe on a nil *Collector (no-ops), mirroring the obs
// tracer convention so call sites need no guards.
type Collector struct {
	k          int
	rangeShift uint // bucket = hash >> rangeShift

	stripes []stripe
	rr      atomic.Uint64 // round-robin stripe cursor

	ops     [kindCount]atomic.Uint64
	bytesIn atomic.Uint64
	bytesOu atomic.Uint64

	batches    atomic.Uint64
	batchedOps atomic.Uint64
	batchFill  [BatchFillBucketCount]atomic.Uint64

	ranges []atomic.Uint64

	start time.Time

	// Snapshot rate state: previous counter values and the folded
	// EWMA, guarded by snapMu (snapshots are rare; records never take
	// this lock).
	snapMu    sync.Mutex
	lastSnap  time.Time
	lastOps   [kindCount]uint64
	rateEWMA  [kindCount]float64
	rateValid bool
	rateWarm  bool
}

// NewCollector returns a Collector with the given configuration.
func NewCollector(cfg Config) *Collector {
	k := cfg.K
	if k <= 0 {
		k = DefaultTopK
	}
	nb := cfg.RangeBuckets
	if nb <= 0 {
		nb = DefaultRangeBuckets
	}
	// Round up to a power of two so the bucket index is a shift.
	pow := 1
	for pow < nb {
		pow <<= 1
	}
	stripes := cfg.Stripes
	if stripes <= 0 {
		stripes = 8
	}
	c := &Collector{
		k:          k,
		rangeShift: uint(64 - bits(pow)),
		stripes:    make([]stripe, stripes),
		ranges:     make([]atomic.Uint64, pow),
		start:      time.Now(),
	}
	for i := range c.stripes {
		c.stripes[i].top = NewTopK(k)
	}
	return c
}

// bits returns log2 of a power of two.
func bits(pow int) int {
	n := 0
	for pow > 1 {
		pow >>= 1
		n++
	}
	return n
}

// Record accounts one operation: its kind, the key's hashed id (use
// HashKey), and the payload bytes received from / returned to the
// client. Allocation-free; nil-safe.
func (c *Collector) Record(kind Kind, keyHash uint64, bytesIn, bytesOut int) {
	if c == nil {
		return
	}
	if kind < kindCount {
		c.ops[kind].Add(1)
	}
	if bytesIn > 0 {
		c.bytesIn.Add(uint64(bytesIn))
	}
	if bytesOut > 0 {
		c.bytesOu.Add(uint64(bytesOut))
	}
	c.ranges[keyHash>>c.rangeShift].Add(1)
	s := &c.stripes[c.rr.Add(1)%uint64(len(c.stripes))]
	s.mu.Lock()
	s.top.Observe(keyHash)
	s.mu.Unlock()
}

// AddBytesOut accounts n payload bytes returned to a client, for call
// sites (like the reply path) where the op itself was already
// Record-ed without its response size. Nil-safe.
func (c *Collector) AddBytesOut(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.bytesOu.Add(uint64(n))
}

// RecordBatch accounts one multi-op batch frame of n ops (its ops are
// still Record-ed individually; this tracks frame fill levels).
// Nil-safe.
func (c *Collector) RecordBatch(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.batches.Add(1)
	c.batchedOps.Add(uint64(n))
	i := 0
	for i < len(batchFillBuckets) && n > batchFillBuckets[i] {
		i++
	}
	c.batchFill[i].Add(1)
}

// Snapshot is a point-in-time heat summary: merged heavy hitters,
// the ring-aligned range histogram with its skew, cumulative op and
// byte counters, EWMA op rates, and batch fill levels.
type Snapshot struct {
	// Top holds the merged heavy hitters, hottest first, at most K.
	Top []TopEntry `json:"top"`
	// RangeBuckets is the key-range histogram: ops per equal arc of
	// the 64-bit ring hash space, index 0 = lowest hashes.
	RangeBuckets []uint64 `json:"range_buckets"`
	// RangeSkew is the imbalance across RangeBuckets.
	RangeSkew Skew `json:"range_skew"`

	// Puts, Gets, Deletes are cumulative op counts by kind.
	Puts uint64 `json:"puts"`
	// Gets is the cumulative get count.
	Gets uint64 `json:"gets"`
	// Deletes is the cumulative delete count.
	Deletes uint64 `json:"deletes"`
	// BytesIn and BytesOut are cumulative payload byte counters.
	BytesIn uint64 `json:"bytes_in"`
	// BytesOut is the cumulative payload bytes returned to clients.
	BytesOut uint64 `json:"bytes_out"`

	// PutRate, GetRate, DeleteRate are EWMA op rates in ops/sec,
	// folded at snapshot time with a ~10 s time constant.
	PutRate float64 `json:"put_rate"`
	// GetRate is the EWMA get rate in ops/sec.
	GetRate float64 `json:"get_rate"`
	// DeleteRate is the EWMA delete rate in ops/sec.
	DeleteRate float64 `json:"delete_rate"`

	// Batches and BatchedOps count multi-op frames and the ops they
	// carried; BatchFill is the frame fill-level histogram with
	// bucket bounds from BatchFillBucketBound.
	Batches uint64 `json:"batches"`
	// BatchedOps is the total ops carried inside batch frames.
	BatchedOps uint64 `json:"batched_ops"`
	// BatchFill is the batch fill-level histogram.
	BatchFill [BatchFillBucketCount]uint64 `json:"batch_fill"`

	// Uptime is the collector's age at snapshot time.
	Uptime time.Duration `json:"uptime_ns"`
}

// TotalOps returns the snapshot's cumulative op count over all kinds.
func (s Snapshot) TotalOps() uint64 { return s.Puts + s.Gets + s.Deletes }

// Snapshot merges the stripes and returns the current heat summary.
// Safe on a nil *Collector (returns a zero snapshot). Snapshots
// allocate; take them on scrape cadence, not per-op.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{RangeSkew: Skew{MaxMean: 1}}
	}
	var snap Snapshot
	lists := make([][]TopEntry, 0, len(c.stripes))
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		lists = append(lists, s.top.AppendTo(make([]TopEntry, 0, s.top.Len())))
		s.mu.Unlock()
	}
	snap.Top = MergeTop(c.k, lists...)

	snap.RangeBuckets = make([]uint64, len(c.ranges))
	for i := range c.ranges {
		snap.RangeBuckets[i] = c.ranges[i].Load()
	}
	snap.RangeSkew = SkewOf(snap.RangeBuckets)

	snap.Puts = c.ops[KindPut].Load()
	snap.Gets = c.ops[KindGet].Load()
	snap.Deletes = c.ops[KindDelete].Load()
	snap.BytesIn = c.bytesIn.Load()
	snap.BytesOut = c.bytesOu.Load()
	snap.Batches = c.batches.Load()
	snap.BatchedOps = c.batchedOps.Load()
	for i := range c.batchFill {
		snap.BatchFill[i] = c.batchFill[i].Load()
	}

	now := time.Now()
	snap.Uptime = now.Sub(c.start)

	c.snapMu.Lock()
	counts := [kindCount]uint64{snap.Puts, snap.Gets, snap.Deletes}
	if !c.rateValid {
		c.lastSnap, c.lastOps, c.rateValid = now, counts, true
	} else if dt := now.Sub(c.lastSnap).Seconds(); dt > 0 {
		alpha := 1 - math.Exp(-dt/rateTau.Seconds())
		for k := range counts {
			inst := float64(counts[k]-c.lastOps[k]) / dt
			if !c.rateWarm {
				// Warm start: the first measured interval seeds the
				// EWMA outright instead of decaying up from zero.
				c.rateEWMA[k] = inst
			} else {
				c.rateEWMA[k] += alpha * (inst - c.rateEWMA[k])
			}
		}
		c.rateWarm = true
		c.lastSnap, c.lastOps = now, counts
	}
	snap.PutRate = c.rateEWMA[KindPut]
	snap.GetRate = c.rateEWMA[KindGet]
	snap.DeleteRate = c.rateEWMA[KindDelete]
	c.snapMu.Unlock()
	return snap
}
