package hist

import (
	"sync"
	"time"
)

// DefaultShards is the shard count NewSharded uses when given n <= 0.
// It matches the server's default worker count so per-worker recording
// never contends.
const DefaultShards = 16

// Sharded is a histogram safe for concurrent recording: samples go into
// per-worker shards (each guarded by its own mutex, so recording from a
// stable worker index is effectively uncontended) and Snapshot merges
// the shards into one Histogram on demand.
//
// Shards allocate their Histogram lazily, so an idle Sharded — e.g. one
// of many per-stage histograms in a tracer that never sees a given
// stage — costs a few words, not a bucket array.
type Sharded struct {
	shards []shard
}

// shard is one lock-striped slice of a Sharded histogram.
type shard struct {
	mu sync.Mutex
	h  *Histogram
	// pad the shard out to its own cache line so adjacent shards'
	// mutexes don't false-share under concurrent recording.
	_ [64 - 16]byte
}

// NewSharded creates a sharded histogram with n shards (DefaultShards
// if n <= 0).
func NewSharded(n int) *Sharded {
	if n <= 0 {
		n = DefaultShards
	}
	return &Sharded{shards: make([]shard, n)}
}

// Shards returns the shard count: the most bucket arrays s ever holds.
func (s *Sharded) Shards() int { return len(s.shards) }

// Record adds one sample to the worker-th shard (taken modulo the shard
// count, so any non-negative worker index is valid).
func (s *Sharded) Record(worker int, d time.Duration) {
	sh := &s.shards[uint(worker)%uint(len(s.shards))]
	sh.mu.Lock()
	if sh.h == nil {
		sh.h = New()
	}
	sh.h.Record(d)
	sh.mu.Unlock()
}

// Snapshot merges every shard into a fresh Histogram. The result is a
// point-in-time copy owned by the caller; the shards keep accumulating.
func (s *Sharded) Snapshot() *Histogram {
	out := New()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.h != nil {
			out.Merge(sh.h)
		}
		sh.mu.Unlock()
	}
	return out
}

// Count returns the total samples across shards (taking each shard's
// lock briefly, like Snapshot, but without merging bucket arrays).
func (s *Sharded) Count() uint64 {
	var n uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.h != nil {
			n += sh.h.Count()
		}
		sh.mu.Unlock()
	}
	return n
}
