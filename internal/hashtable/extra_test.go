package hashtable

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"testing"
	"unsafe"
)

func TestSwapSemantics(t *testing.T) {
	tbl := New[string](nil, 0)
	if old, existed := tbl.Swap("k", "v1"); existed || old != "" {
		t.Errorf("fresh swap: %q %v", old, existed)
	}
	if old, existed := tbl.Swap("k", "v2"); !existed || old != "v1" {
		t.Errorf("replace swap: %q %v", old, existed)
	}
	if v, ok := tbl.Get("k"); !ok || v != "v2" {
		t.Errorf("after swap: %q %v", v, ok)
	}
	if tbl.Len() != 1 {
		t.Errorf("len = %d", tbl.Len())
	}
}

func TestSwapUnderCollisions(t *testing.T) {
	tbl := New[int](nil, 0)
	const n = 200
	for i := 0; i < n; i++ {
		tbl.Put("key-"+strconv.Itoa(i), i)
	}
	// Swap every key and verify old values round-trip.
	for i := 0; i < n; i++ {
		old, existed := tbl.Swap("key-"+strconv.Itoa(i), i*10)
		if !existed || old != i {
			t.Fatalf("swap %d: %d %v", i, old, existed)
		}
	}
	for i := 0; i < n; i++ {
		if v, ok := tbl.Get("key-" + strconv.Itoa(i)); !ok || v != i*10 {
			t.Fatalf("after swap %d: %d %v", i, v, ok)
		}
	}
}

func TestClear(t *testing.T) {
	tbl := New[int](nil, 0)
	for i := 0; i < 500; i++ {
		tbl.Put(strconv.Itoa(i), i)
	}
	buckets := tbl.Buckets()
	tbl.Clear()
	if tbl.Len() != 0 {
		t.Errorf("len after clear = %d", tbl.Len())
	}
	if tbl.Buckets() != buckets {
		t.Errorf("bucket array changed: %d -> %d", buckets, tbl.Buckets())
	}
	if _, ok := tbl.Get("42"); ok {
		t.Error("cleared key still present")
	}
	// Table is reusable after Clear.
	tbl.Put("fresh", 1)
	if v, ok := tbl.Get("fresh"); !ok || v != 1 {
		t.Errorf("reuse after clear: %d %v", v, ok)
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tbl := New[int](nil, 0)
	for i := 0; i < 100; i++ {
		tbl.Put(strconv.Itoa(i), i)
	}
	visits := 0
	tbl.Range(func(key string, v int, _ uint32) bool {
		visits++
		return visits < 10
	})
	if visits != 10 {
		t.Errorf("visits = %d", visits)
	}
}

// upsert is Edit as a conditional replace: fn gets the current value and
// returns the value to store and whether to store it.
func upsert[V any](t *Table[V], key string, fn func(cur V, exists bool) (V, bool)) bool {
	return t.Edit(key, func(v *V, _ uint32, exists bool) bool {
		val, store := fn(*v, exists)
		if store {
			*v = val
		}
		return store
	})
}

func TestUpsertConditionalSwap(t *testing.T) {
	tbl := New[int](nil, 0)
	// Absent key: fn sees exists=false and may insert.
	if !upsert(tbl, "k", func(cur int, exists bool) (int, bool) {
		if exists {
			t.Fatal("exists=true for fresh key")
		}
		return 1, true
	}) {
		t.Fatal("insert upsert failed")
	}
	// Condition holds: replacement applied.
	if !upsert(tbl, "k", func(cur int, exists bool) (int, bool) { return cur + 10, exists && cur == 1 }) {
		t.Fatal("upsert with matching condition failed")
	}
	if v, _ := tbl.Get("k"); v != 11 {
		t.Fatalf("v = %d", v)
	}
	// Condition fails: value untouched, reported as not applied.
	if upsert(tbl, "k", func(cur int, exists bool) (int, bool) { return 99, cur == 1 }) {
		t.Fatal("upsert applied despite failed condition")
	}
	if v, _ := tbl.Get("k"); v != 11 {
		t.Fatalf("v = %d after refused upsert", v)
	}
	// Declining an insert leaves the key absent.
	if upsert(tbl, "absent", func(cur int, exists bool) (int, bool) { return 5, false }) {
		t.Fatal("declined insert reported as applied")
	}
	if _, ok := tbl.Get("absent"); ok {
		t.Fatal("declined insert landed anyway")
	}
	// Upsert inserts interact correctly with growth.
	for i := 0; i < 2000; i++ {
		k := "grow-" + strconv.Itoa(i)
		upsert(tbl, k, func(cur int, exists bool) (int, bool) { return i, !exists })
	}
	if tbl.Len() != 2001 {
		t.Fatalf("len = %d", tbl.Len())
	}
}

func TestDeleteIf(t *testing.T) {
	tbl := New[int](nil, 0)
	tbl.Put("k", 7)
	if tbl.DeleteIf("k", func(cur int, _ uint32) bool { return cur == 8 }) {
		t.Fatal("conditional delete fired on mismatched value")
	}
	if _, ok := tbl.Get("k"); !ok {
		t.Fatal("refused delete removed the key")
	}
	if !tbl.DeleteIf("k", func(cur int, _ uint32) bool { return cur == 7 }) {
		t.Fatal("conditional delete failed on matching value")
	}
	if _, ok := tbl.Get("k"); ok {
		t.Fatal("key survives an approved delete")
	}
	if tbl.DeleteIf("k", func(int, uint32) bool { return true }) {
		t.Fatal("delete of absent key reported success")
	}
	// Probe chains stay intact after a conditional delete (backward shift).
	for i := 0; i < 300; i++ {
		tbl.Put("p-"+strconv.Itoa(i), i)
	}
	if !tbl.DeleteIf("p-7", func(int, uint32) bool { return true }) {
		t.Fatal("chain delete failed")
	}
	for i := 0; i < 300; i++ {
		if i == 7 {
			continue
		}
		if v, ok := tbl.Get("p-" + strconv.Itoa(i)); !ok || v != i {
			t.Fatalf("probe chain broken at %d", i)
		}
	}
}

// TestGetThroughByteViewMatchesGet checks a lookup through a string view
// of key bytes — how the enclave looks up the key of an opened control —
// against one through an ordinary string, for present and absent keys of
// every length class, and that it never allocates, not even past the 32
// bytes a string conversion could keep on the stack.
func TestGetThroughByteViewMatchesGet(t *testing.T) {
	tbl := New[int](nil, 0)
	var keys [][]byte
	for i, n := range []int{1, 8, 31, 32, 33, 64, 500, 4096} {
		k := bytes.Repeat([]byte{byte('a' + i)}, n)
		keys = append(keys, k)
		tbl.Put(string(k), i)
	}
	for i, k := range keys {
		if v, ok := tbl.Get(view(k)); !ok || v != i {
			t.Errorf("Get(view of len %d) = %d, %v; want %d", len(k), v, ok, i)
		}
		missing := append(append([]byte(nil), k...), 'x')
		if _, ok := tbl.Get(view(missing)); ok {
			t.Errorf("Get found an absent key of len %d", len(missing))
		}
	}
	if _, ok := tbl.Get(view(nil)); ok {
		t.Error("Get(view of nil) found an entry")
	}
	long := keys[len(keys)-1]
	if a := testing.AllocsPerRun(100, func() { tbl.Get(view(long)) }); a != 0 {
		t.Errorf("Get through a view of a %d-byte key allocates %.1f times, want 0", len(long), a)
	}
}

// view is b seen as a string without a copy, valid while b's bytes are.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// TestTableOwnsItsKeys inserts, replaces, upserts and deletes through a
// view of one reused buffer, overwriting the buffer after every call: the
// table must have cloned each key it inserted, so Range, Get, Key and a
// later growth all still see the original keys.
func TestTableOwnsItsKeys(t *testing.T) {
	tbl := New[int](nil, 0)
	buf := make([]byte, 16)
	key := func(i int) string { return fmt.Sprintf("key-%012d", i) }
	through := func(i int) string { copy(buf, key(i)); return view(buf) }
	scribble := func() {
		for i := range buf {
			buf[i] = '#'
		}
	}
	const n = 45 // below the first growth (55 of 64 buckets)
	want := map[string]int{}
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			tbl.Put(through(i), i)
		case 1:
			tbl.Swap(through(i), i)
		case 2:
			upsert(tbl, through(i), func(int, bool) (int, bool) { return i, true })
		}
		scribble()
		want[key(i)] = i
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			tbl.Swap(through(i), i+1000)
		} else {
			upsert(tbl, through(i), func(cur int, ok bool) (int, bool) { return cur + 1000, ok })
		}
		scribble()
		want[key(i)] = i + 1000
	}
	for i := 0; i < n; i += 5 {
		if i%2 == 0 {
			tbl.Delete(through(i))
		} else {
			tbl.DeleteIf(through(i), func(int, uint32) bool { return true })
		}
		scribble()
		delete(want, key(i))
	}
	check := func(when string) {
		t.Helper()
		seen := 0
		tbl.Range(func(k string, v int, _ uint32) bool {
			if w, ok := want[k]; !ok || w != v {
				t.Errorf("%s: Range yields %q = %d, want %d (present %v)", when, k, v, w, ok)
			}
			seen++
			return true
		})
		if seen != len(want) {
			t.Errorf("%s: Range visits %d entries, want %d", when, seen, len(want))
		}
		for k, w := range want {
			if v, ok := tbl.Get(k); !ok || v != w {
				t.Errorf("%s: Get(%q) = %d, %v; want %d", when, k, v, ok, w)
			}
			if own, ok := tbl.Key(k); !ok || own != k {
				t.Errorf("%s: Key(%q) = %q, %v", when, k, own, ok)
			}
		}
	}
	check("before growth")
	buckets := tbl.Buckets()
	for i := n; i < 4*n; i++ {
		tbl.Put(key(i), i)
		want[key(i)] = i
	}
	if tbl.Buckets() == buckets {
		t.Fatal("the table did not grow")
	}
	check("after growth")
}

// touchLog is an Accountant that records every bucket access.
type touchLog struct{ buckets []int }

func (l *touchLog) GrowTable(int, int)              {}
func (l *touchLog) TouchBucket(i, n, entrySize int) { l.buckets = append(l.buckets, i) }

// TestDeleteChargesItsBuckets: both deletes charge the buckets they probe
// and every bucket the backward shift reads and rewrites, like every other
// table operation — before, Delete charged none and DeleteIf only its
// probe, so deletes were invisible to the paging model.
func TestDeleteChargesItsBuckets(t *testing.T) {
	// Four keys sharing one home bucket fill it and the three after it.
	var chain []string
	first := -1 // the chain's home bucket
	for i := 0; len(chain) < 4; i++ {
		k := "c-" + strconv.Itoa(i)
		if h := int(home(uint32(hashKey(k)), initialBuckets)); first < 0 || h == first {
			first = h
			chain = append(chain, k)
		}
	}
	slot := func(d int) int { return (first + d) % initialBuckets }
	for _, del := range []struct {
		name string
		fn   func(*Table[int], string) bool
	}{
		{"Delete", (*Table[int]).Delete},
		{"DeleteIf", func(t *Table[int], k string) bool { return t.DeleteIf(k, func(int, uint32) bool { return true }) }},
	} {
		log := &touchLog{}
		tbl := New[int](log, 0)
		for i, k := range chain {
			tbl.Put(k, i)
		}
		log.buckets = nil
		if !del.fn(tbl, chain[0]) {
			t.Fatalf("%s: key not found", del.name)
		}
		// The probe reads the home bucket and finds the key; the shift
		// reads the three followers, moving each back, and the empty
		// bucket that ends it.
		want := []int{slot(0), slot(1), slot(2), slot(3), slot(4)}
		if !slices.Equal(log.buckets, want) {
			t.Errorf("%s charged buckets %v, want %v", del.name, log.buckets, want)
		}
		for i, k := range chain[1:] {
			if v, ok := tbl.Get(k); !ok || v != i+1 {
				t.Errorf("%s: Get(%q) = %d, %v after the shift", del.name, k, v, ok)
			}
		}
	}
}
