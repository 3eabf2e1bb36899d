package hashtable

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	tbl := New[int](nil, 0)
	if _, ok := tbl.Get("missing"); ok {
		t.Error("empty table returned a value")
	}
	if existed := tbl.Put("a", 1); existed {
		t.Error("fresh insert reported as replace")
	}
	if v, ok := tbl.Get("a"); !ok || v != 1 {
		t.Errorf("Get(a) = %d,%v", v, ok)
	}
	if existed := tbl.Put("a", 2); !existed {
		t.Error("replace reported as fresh insert")
	}
	if v, _ := tbl.Get("a"); v != 2 {
		t.Errorf("after replace: %d", v)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
	if !tbl.Delete("a") {
		t.Error("Delete(a) = false")
	}
	if tbl.Delete("a") {
		t.Error("second Delete(a) = true")
	}
	if _, ok := tbl.Get("a"); ok {
		t.Error("deleted key still present")
	}
	if tbl.Len() != 0 {
		t.Errorf("Len after delete = %d", tbl.Len())
	}
}

func TestGrowthPreservesEntries(t *testing.T) {
	tbl := New[int](nil, 0)
	const n = 10000
	for i := 0; i < n; i++ {
		tbl.Put("key-"+strconv.Itoa(i), i)
	}
	if tbl.Len() != n {
		t.Fatalf("Len = %d, want %d", tbl.Len(), n)
	}
	if tbl.Buckets() <= initialBuckets {
		t.Errorf("table did not grow: %d buckets", tbl.Buckets())
	}
	for i := 0; i < n; i++ {
		if v, ok := tbl.Get("key-" + strconv.Itoa(i)); !ok || v != i {
			t.Fatalf("key-%d: %d,%v", i, v, ok)
		}
	}
}

func TestIncrementalInitialFootprint(t *testing.T) {
	var grown []int
	acct := &recordingAccountant{onGrow: func(o, n int) { grown = append(grown, n) }}
	tbl := New[int](acct, 128)
	if len(grown) != 1 || grown[0] != initialBuckets*128 {
		t.Errorf("initial growth events = %v", grown)
	}
	// The paper's point: inserting keys grows the footprint gradually.
	for i := 0; i < 1000; i++ {
		tbl.Put(strconv.Itoa(i), i)
	}
	if len(grown) < 3 {
		t.Errorf("expected multiple incremental growths, got %v", grown)
	}
}

// TestGrowthLadder pins the table's geometry: bucket counts run 64, 96, 128,
// 192, …, a power of two and three times one in turn; the load never passes
// maxLoadPercent, a growth leaves it at no less than maxLoadPercent/1.5, and
// the accountant hears every step's bytes.
func TestGrowthLadder(t *testing.T) {
	const (
		keys    = 50_000
		entSize = 92
	)
	var want []int
	for p := initialBuckets; p <= 1<<16; p *= 2 {
		want = append(want, p, p*3/2)
	}
	type step struct{ oldBytes, newBytes int }
	var steps []step
	acct := &recordingAccountant{onGrow: func(o, n int) { steps = append(steps, step{o, n}) }}
	tbl := New[int](acct, entSize)
	got := []int{tbl.Buckets()}
	for i := 0; i < keys; i++ {
		tbl.Put(fmt.Sprintf("user%012d", i), i)
		n, b := tbl.Len(), tbl.Buckets()
		if n*100 > b*maxLoadPercent {
			t.Fatalf("%d keys in %d buckets: load above %d %%", n, b, maxLoadPercent)
		}
		if b != got[len(got)-1] {
			got = append(got, b)
			if n*150 < b*maxLoadPercent {
				t.Errorf("growth to %d buckets at %d keys leaves load %.3f, below %d %% / 1.5", b, n, float64(n)/float64(b), maxLoadPercent)
			}
		}
	}
	if !slices.Equal(got, want[:len(got)]) || got[len(got)-1] != 65_536 {
		t.Fatalf("bucket counts %v, want a prefix of %v ending at 65536", got, want)
	}
	if len(steps) != len(got) {
		t.Fatalf("%d growth reports for %d sizes", len(steps), len(got))
	}
	for i, s := range steps {
		oldBytes := 0
		if i > 0 {
			oldBytes = got[i-1] * entSize
		}
		if s != (step{oldBytes, got[i] * entSize}) {
			t.Errorf("growth report %d = %+v, want %d -> %d bytes", i, s, oldBytes, got[i]*entSize)
		}
	}
}

// TestProbeLength: sequential keys spread over the index. FNV-1a gives keys
// that differ in their last digits nearby low bits; scaled onto the buckets
// without mixing, such keys crowd into runs of neighbouring buckets (a mean
// probe distance of about 100 on this load).
func TestProbeLength(t *testing.T) {
	const keys = 300_000
	tbl := New[struct{}](nil, 0)
	for i := 0; i < keys; i++ {
		tbl.Put(fmt.Sprintf("user%012d", i), struct{}{})
	}
	var sum, longest uint64
	for i, s := range tbl.slots {
		if s.rec != 0 {
			d := probeDist(s.tag, uint64(i), tbl.n)
			sum += d
			longest = max(longest, d)
		}
	}
	mean := float64(sum) / keys
	t.Logf("%d keys in %d buckets (load %.3f): mean probe distance %.3f, longest %d",
		keys, tbl.n, float64(keys)/float64(tbl.n), mean, longest)
	if mean > 2.0 || longest > 32 {
		t.Errorf("mean probe distance %.3f (bound 2.0), longest %d (bound 32)", mean, longest)
	}
}

type recordingAccountant struct {
	onGrow  func(oldBytes, newBytes int)
	touches int
}

func (r *recordingAccountant) GrowTable(o, n int) {
	if r.onGrow != nil {
		r.onGrow(o, n)
	}
}
func (r *recordingAccountant) TouchBucket(i, n, entrySize int) { r.touches++ }

func TestAccountantTouches(t *testing.T) {
	acct := &recordingAccountant{}
	tbl := New[int](acct, 64)
	tbl.Put("x", 1)
	tbl.Get("x")
	if acct.touches == 0 {
		t.Error("no bucket touches recorded")
	}
}

// TestModelEquivalence drives the table and a builtin map with the same
// random operation sequence and requires identical observable behaviour.
func TestModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := New[int](nil, 0)
		model := make(map[string]int)
		for i := 0; i < 2000; i++ {
			key := "k" + strconv.Itoa(rng.Intn(300))
			switch rng.Intn(4) {
			case 0, 1: // put
				v := rng.Int()
				_, inModel := model[key]
				if existed := tbl.Put(key, v); existed != inModel {
					return false
				}
				model[key] = v
			case 2: // get
				v, ok := tbl.Get(key)
				mv, mok := model[key]
				if ok != mok || (ok && v != mv) {
					return false
				}
			case 3: // delete
				_, inModel := model[key]
				if deleted := tbl.Delete(key); deleted != inModel {
					return false
				}
				delete(model, key)
			}
			if tbl.Len() != len(model) {
				return false
			}
		}
		// Final sweep.
		for k, mv := range model {
			if v, ok := tbl.Get(k); !ok || v != mv {
				return false
			}
		}
		count := 0
		tbl.Range(func(k string, v int, _ uint32) bool {
			if model[k] != v {
				return false
			}
			count++
			return true
		})
		return count == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestDeleteBackwardShift inserts colliding keys and deletes them in every
// order, verifying the backward-shift deletion preserves lookups.
func TestDeleteBackwardShift(t *testing.T) {
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("collide-%04d", i)
	}
	for del := 0; del < len(keys); del++ {
		tbl := New[int](nil, 0)
		for i, k := range keys {
			tbl.Put(k, i)
		}
		tbl.Delete(keys[del])
		for i, k := range keys {
			v, ok := tbl.Get(k)
			if i == del {
				if ok {
					t.Fatalf("deleted key %q still present", k)
				}
				continue
			}
			if !ok || v != i {
				t.Fatalf("after deleting %q: Get(%q) = %d,%v", keys[del], k, v, ok)
			}
		}
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	tbl := New[int](nil, 0)
	for i := 0; i < 100; i++ {
		tbl.Put("stable-"+strconv.Itoa(i), i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tbl.Put(fmt.Sprintf("w%d-%d", id, i), i)
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if v, ok := tbl.Get("stable-" + strconv.Itoa(i%100)); !ok || v != i%100 {
					t.Errorf("stable key disturbed: %d,%v", v, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	if tbl.Len() != 100+4*1000 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestEmptyKeyAndZeroHash(t *testing.T) {
	tbl := New[string](nil, 0)
	tbl.Put("", "empty-key-value")
	if v, ok := tbl.Get(""); !ok || v != "empty-key-value" {
		t.Errorf("empty key: %q,%v", v, ok)
	}
	if hashKey("") == 0 {
		t.Error("hashKey produced reserved zero")
	}
}

func BenchmarkTableGet(b *testing.B) {
	tbl := New[int](nil, 0)
	const n = 100000
	for i := 0; i < n; i++ {
		tbl.Put("key-"+strconv.Itoa(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Get("key-" + strconv.Itoa(i%n))
	}
}

func BenchmarkTablePut(b *testing.B) {
	tbl := New[int](nil, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Put("key-"+strconv.Itoa(i), i)
	}
}
