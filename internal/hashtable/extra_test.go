package hashtable

import (
	"bytes"
	"strconv"
	"testing"
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
	tbl.Range(func(key string, v int) bool {
		visits++
		return visits < 10
	})
	if visits != 10 {
		t.Errorf("visits = %d", visits)
	}
}

func TestUpsertConditionalSwap(t *testing.T) {
	tbl := New[int](nil, 0)
	// Absent key: fn sees exists=false and may insert.
	if !tbl.Upsert("k", func(cur int, exists bool) (int, bool) {
		if exists {
			t.Fatal("exists=true for fresh key")
		}
		return 1, true
	}) {
		t.Fatal("insert upsert failed")
	}
	// Condition holds: replacement applied.
	if !tbl.Upsert("k", func(cur int, exists bool) (int, bool) { return cur + 10, exists && cur == 1 }) {
		t.Fatal("upsert with matching condition failed")
	}
	if v, _ := tbl.Get("k"); v != 11 {
		t.Fatalf("v = %d", v)
	}
	// Condition fails: value untouched, reported as not applied.
	if tbl.Upsert("k", func(cur int, exists bool) (int, bool) { return 99, cur == 1 }) {
		t.Fatal("upsert applied despite failed condition")
	}
	if v, _ := tbl.Get("k"); v != 11 {
		t.Fatalf("v = %d after refused upsert", v)
	}
	// Declining an insert leaves the key absent.
	if tbl.Upsert("absent", func(cur int, exists bool) (int, bool) { return 5, false }) {
		t.Fatal("declined insert reported as applied")
	}
	if _, ok := tbl.Get("absent"); ok {
		t.Fatal("declined insert landed anyway")
	}
	// Upsert inserts interact correctly with growth.
	for i := 0; i < 2000; i++ {
		k := "grow-" + strconv.Itoa(i)
		tbl.Upsert(k, func(cur int, exists bool) (int, bool) { return i, !exists })
	}
	if tbl.Len() != 2001 {
		t.Fatalf("len = %d", tbl.Len())
	}
}

func TestDeleteIf(t *testing.T) {
	tbl := New[int](nil, 0)
	tbl.Put("k", 7)
	if tbl.DeleteIf("k", func(cur int) bool { return cur == 8 }) {
		t.Fatal("conditional delete fired on mismatched value")
	}
	if _, ok := tbl.Get("k"); !ok {
		t.Fatal("refused delete removed the key")
	}
	if !tbl.DeleteIf("k", func(cur int) bool { return cur == 7 }) {
		t.Fatal("conditional delete failed on matching value")
	}
	if _, ok := tbl.Get("k"); ok {
		t.Fatal("key survives an approved delete")
	}
	if tbl.DeleteIf("k", func(int) bool { return true }) {
		t.Fatal("delete of absent key reported success")
	}
	// Probe chains stay intact after a conditional delete (backward shift).
	for i := 0; i < 300; i++ {
		tbl.Put("p-"+strconv.Itoa(i), i)
	}
	if !tbl.DeleteIf("p-7", func(int) bool { return true }) {
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

// TestGetBytesMatchesGet checks the byte-keyed lookup against the string
// one for present and absent keys of every length class, and that it
// never allocates — not even past the 32 bytes a string conversion could
// keep on the stack.
func TestGetBytesMatchesGet(t *testing.T) {
	tbl := New[int](nil, 0)
	var keys [][]byte
	for i, n := range []int{1, 8, 31, 32, 33, 64, 500, 4096} {
		k := bytes.Repeat([]byte{byte('a' + i)}, n)
		keys = append(keys, k)
		tbl.Put(string(k), i)
	}
	for i, k := range keys {
		if v, ok := tbl.GetBytes(k); !ok || v != i {
			t.Errorf("GetBytes(len %d) = %d, %v; want %d", len(k), v, ok, i)
		}
		missing := append(append([]byte(nil), k...), 'x')
		if _, ok := tbl.GetBytes(missing); ok {
			t.Errorf("GetBytes found an absent key of len %d", len(missing))
		}
	}
	if _, ok := tbl.GetBytes(nil); ok {
		t.Error("GetBytes(nil) found an entry")
	}
	long := keys[len(keys)-1]
	if a := testing.AllocsPerRun(100, func() { tbl.GetBytes(long) }); a != 0 {
		t.Errorf("GetBytes of a %d-byte key allocates %.1f times, want 0", len(long), a)
	}
}
