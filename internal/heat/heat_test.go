package heat

import (
	"encoding/json"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHashKeyMatchesRingHash(t *testing.T) {
	// HashKey documents itself as bit-for-bit the ring's placement
	// hash: FNV-1a 64 + splitmix64 finalizer. Pin that against an
	// independent implementation built on hash/fnv.
	ref := func(s string) uint64 {
		h := fnv.New64a()
		_, _ = h.Write([]byte(s))
		x := h.Sum64()
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	for _, s := range []string{"", "a", "user000000000042", "shard-0#17", "précurseur"} {
		if got, want := HashKey(s), ref(s); got != want {
			t.Errorf("HashKey(%q) = %#x, want %#x", s, got, want)
		}
		if got, want := HashKey([]byte(s)), ref(s); got != want {
			t.Errorf("HashKey([]byte(%q)) = %#x, want %#x", s, got, want)
		}
	}
	// Both forms run on the op path: the core records []byte keys, the
	// cluster client routes and records string ones.
	key, keyBytes := "user000000000042", []byte("user000000000042")
	if n := testing.AllocsPerRun(100, func() { _ = HashKey(key) + HashKey(keyBytes) }); n != 0 {
		t.Errorf("HashKey allocates %.1f objects per call pair, want 0", n)
	}
}

func TestTopKExactWhenUnderCapacity(t *testing.T) {
	tk := NewTopK(8)
	counts := map[uint64]uint64{1: 5, 2: 3, 3: 9, 4: 1}
	for h, n := range counts {
		tk.ObserveN(h, n)
	}
	if tk.Len() != len(counts) {
		t.Fatalf("Len = %d, want %d", tk.Len(), len(counts))
	}
	top := MergeTop(0, tk.AppendTo(nil))
	if len(top) != len(counts) {
		t.Fatalf("entries = %d, want %d", len(top), len(counts))
	}
	if top[0].Hash != 3 || top[0].Count != 9 || top[0].Err != 0 {
		t.Fatalf("hottest = %+v, want hash 3 count 9 err 0", top[0])
	}
	for _, e := range top {
		if e.Count != counts[e.Hash] || e.Err != 0 {
			t.Errorf("entry %+v, want exact count %d err 0", e, counts[e.Hash])
		}
	}
}

func TestTopKErrorBoundsUnderEviction(t *testing.T) {
	// Space-Saving guarantees any key with true count > N/k is
	// tracked; size the hot set well above that bound (hot ≈ N/16
	// each, bound = N/64).
	const k = 64
	tk := NewTopK(k)
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		// Zipf-ish: a few hot hashes over a long uniform tail.
		var h uint64
		if rng.Intn(2) == 0 {
			h = uint64(rng.Intn(8)) // hot set
		} else {
			h = 1000 + uint64(rng.Intn(5000)) // tail
		}
		tk.Observe(h)
		truth[h]++
	}
	for _, e := range tk.AppendTo(nil) {
		lo := e.Count - e.Err
		if hi := e.Count; truth[e.Hash] > hi || truth[e.Hash] < lo {
			t.Errorf("hash %d: true %d outside [%d, %d]", e.Hash, truth[e.Hash], lo, hi)
		}
	}
	// Every hot hash (true count ~1500 each, tail ~10) must be tracked.
	top := MergeTop(k, tk.AppendTo(nil))
	tracked := map[uint64]bool{}
	for _, e := range top {
		tracked[e.Hash] = true
	}
	for h := uint64(0); h < 8; h++ {
		if !tracked[h] {
			t.Errorf("hot hash %d not tracked", h)
		}
	}
}

func TestTopEntryJSONRoundTrip(t *testing.T) {
	in := []TopEntry{{Hash: 0xdeadbeefcafe0042, Count: 9, Err: 2}, {Hash: 1, Count: 1}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"hash":"deadbeefcafe0042"`) {
		t.Fatalf("hash not hex-encoded: %s", data)
	}
	var out []TopEntry
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestTopKReset(t *testing.T) {
	tk := NewTopK(4)
	for i := uint64(0); i < 10; i++ {
		tk.Observe(i)
	}
	tk.Reset()
	if tk.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tk.Len())
	}
	tk.ObserveN(42, 3)
	top := tk.AppendTo(nil)
	if len(top) != 1 || top[0].Count != 3 || top[0].Err != 0 {
		t.Fatalf("post-Reset state leaked: %+v", top)
	}
}

func TestMergeTopSumsAndTruncates(t *testing.T) {
	a := []TopEntry{{Hash: 1, Count: 10, Err: 2}, {Hash: 2, Count: 5}}
	b := []TopEntry{{Hash: 1, Count: 7, Err: 1}, {Hash: 3, Count: 20}}
	top := MergeTop(2, a, b)
	if len(top) != 2 {
		t.Fatalf("len = %d, want 2", len(top))
	}
	if top[0] != (TopEntry{Hash: 3, Count: 20}) {
		t.Errorf("top[0] = %+v", top[0])
	}
	if top[1] != (TopEntry{Hash: 1, Count: 17, Err: 3}) {
		t.Errorf("top[1] = %+v, want summed counts and errs", top[1])
	}
}

func TestSkewOf(t *testing.T) {
	if s := SkewOf(nil); s.CV != 0 || s.MaxMean != 1 {
		t.Errorf("empty: %+v", s)
	}
	if s := SkewOf([]uint64{0, 0, 0}); s.CV != 0 || s.MaxMean != 1 {
		t.Errorf("all-zero: %+v", s)
	}
	if s := SkewOf([]uint64{5, 5, 5, 5}); s.CV != 0 || s.MaxMean != 1 {
		t.Errorf("balanced: %+v", s)
	}
	s := SkewOf([]uint64{100, 0, 0, 0})
	if s.MaxMean != 4 {
		t.Errorf("hot-spot MaxMean = %v, want 4", s.MaxMean)
	}
	if s.CV <= 1 {
		t.Errorf("hot-spot CV = %v, want > 1", s.CV)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindPut: "put", KindGet: "get", KindDelete: "delete", Kind(99): "unknown"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestCollectorSnapshot(t *testing.T) {
	c := NewCollector(Config{K: 8, RangeBuckets: 16, Stripes: 2})
	hot := HashKey("hot-key")
	for i := 0; i < 100; i++ {
		c.Record(KindGet, hot, 0, 128)
	}
	c.Record(KindPut, HashKey("other"), 256, 0)
	c.Record(KindDelete, HashKey("third"), 0, 0)
	c.RecordBatch(3)
	c.RecordBatch(40)

	s := c.Snapshot()
	if s.Gets != 100 || s.Puts != 1 || s.Deletes != 1 {
		t.Fatalf("ops = %d/%d/%d", s.Puts, s.Gets, s.Deletes)
	}
	if s.TotalOps() != 102 {
		t.Fatalf("TotalOps = %d", s.TotalOps())
	}
	if s.BytesIn != 256 || s.BytesOut != 100*128 {
		t.Fatalf("bytes = %d in / %d out", s.BytesIn, s.BytesOut)
	}
	if len(s.Top) == 0 || s.Top[0].Hash != hot || s.Top[0].Count != 100 {
		t.Fatalf("top = %+v, want %#x count 100 first", s.Top, hot)
	}
	if len(s.RangeBuckets) != 16 {
		t.Fatalf("range buckets = %d", len(s.RangeBuckets))
	}
	var sum uint64
	for _, b := range s.RangeBuckets {
		sum += b
	}
	if sum != 102 {
		t.Fatalf("range bucket sum = %d, want 102", sum)
	}
	if s.RangeSkew.MaxMean <= 1 {
		t.Errorf("one hot bucket should skew MaxMean above 1: %+v", s.RangeSkew)
	}
	if s.Batches != 2 || s.BatchedOps != 43 {
		t.Fatalf("batches = %d / %d ops", s.Batches, s.BatchedOps)
	}
	if s.BatchFill[2] != 1 {
		t.Errorf("fill 3 should land in the (2,4] bucket: %v", s.BatchFill)
	}
	var fills uint64
	for _, b := range s.BatchFill {
		fills += b
	}
	if fills != 2 {
		t.Fatalf("batch fill histogram sum = %d, want 2", fills)
	}
	if s.BatchFill[BatchFillBucketCount-1] != 1 {
		t.Errorf("fill 40 should land in the overflow bucket: %v", s.BatchFill)
	}
	if s.Uptime <= 0 {
		t.Errorf("Uptime = %v", s.Uptime)
	}
}

func TestCollectorRatesWarmStart(t *testing.T) {
	c := NewCollector(Config{Stripes: 1})
	c.Snapshot() // establish the baseline interval
	for i := 0; i < 500; i++ {
		c.Record(KindGet, uint64(i), 0, 0)
	}
	time.Sleep(20 * time.Millisecond)
	s := c.Snapshot()
	if s.GetRate <= 0 {
		t.Fatalf("GetRate = %v after warm start, want > 0", s.GetRate)
	}
	// 500 ops over ~20ms → thousands of ops/sec; the warm start seeds
	// the EWMA with the measured interval outright.
	if s.GetRate < 1000 {
		t.Errorf("GetRate = %v, want the full measured rate, not a decayed fraction", s.GetRate)
	}
}

func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	c.Record(KindPut, 1, 2, 3) // must not panic
	c.RecordBatch(4)
	s := c.Snapshot()
	if s.TotalOps() != 0 || s.RangeSkew.MaxMean != 1 {
		t.Fatalf("nil snapshot = %+v", s)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(Config{K: 32, Stripes: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Record(Kind(i%3), uint64(g*10000+i%100), i, i)
				if i%64 == 0 {
					c.RecordBatch(i%40 + 1)
					_ = c.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Snapshot().TotalOps(); got != 16000 {
		t.Fatalf("TotalOps = %d, want 16000", got)
	}
}

// TestSketchZeroAllocSteadyState is the CI allocation gate on the heat
// record path (PRECURSOR_ALLOC_GATE pattern, as for the batch codecs):
// once warm, TopK.Observe — including the evict-and-replace path — and
// Collector.Record must not allocate, or in-enclave accounting would
// churn the heap under EPC pressure.
func TestSketchZeroAllocSteadyState(t *testing.T) {
	if os.Getenv("PRECURSOR_ALLOC_GATE") == "" {
		t.Skip("set PRECURSOR_ALLOC_GATE=1 to enforce the zero-allocation gate")
	}
	tk := NewTopK(64)
	for i := uint64(0); i < 256; i++ {
		tk.Observe(i) // warm past capacity so evictions happen
	}
	var next uint64 = 1 << 20
	if avg := testing.AllocsPerRun(200, func() {
		tk.Observe(42)   // hit path
		tk.Observe(next) // miss path: evict and replace
		next++
	}); avg != 0 {
		t.Errorf("TopK.Observe allocates %v allocs/op at steady state, want 0", avg)
	}

	c := NewCollector(Config{K: 64, Stripes: 2})
	for i := uint64(0); i < 512; i++ {
		c.Record(KindGet, i, 16, 16)
	}
	var h uint64
	if avg := testing.AllocsPerRun(200, func() {
		c.Record(KindPut, h, 64, 0)
		c.RecordBatch(8)
		h += 1 << 50
	}); avg != 0 {
		t.Errorf("Collector.Record allocates %v allocs/op at steady state, want 0", avg)
	}
}

func BenchmarkTopKObserve(b *testing.B) {
	tk := NewTopK(64)
	for i := uint64(0); i < 256; i++ {
		tk.Observe(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Observe(uint64(i) * 0x9E3779B97F4A7C15)
	}
}

func BenchmarkCollectorRecord(b *testing.B) {
	c := NewCollector(Config{K: 64, Stripes: 8})
	for i := uint64(0); i < 512; i++ {
		c.Record(KindGet, i, 16, 16)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var i uint64
		for pb.Next() {
			c.Record(KindGet, i*0x9E3779B97F4A7C15, 16, 128)
			i++
		}
	})
}

func BenchmarkHashKey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = HashKey("user000000012345")
	}
}
