package hashtable

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestSlotAndRecordSizes: an index slot is 8 bytes, and a record is its
// value plus the 4-byte place of its key — so a 64-byte value makes a
// 68-byte record, and a pointer, 8-aligned, a 16-byte one.
func TestSlotAndRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 8 {
		t.Errorf("slot is %d bytes, want 8", n)
	}
	if n := unsafe.Sizeof(record[[64]byte]{}); n != 68 {
		t.Errorf("record of a 64-byte value is %d bytes, want 68", n)
	}
	if n := unsafe.Sizeof(record[*int]{}); n != 16 {
		t.Errorf("record of a pointer is %d bytes, want 16", n)
	}
}

// TestRecordChunksFillTheirSizeClass: the enclave's record is a 48-byte
// pointer-free value and its key's 4-byte place, 52 bytes, and a chunk of
// recordChunk = 315 of them takes 16 380 B of the 16 384 B size class. A
// column chunk of pointers carries the allocator's 8-byte type header:
// 2 528 B, in the 2 688 B class.
func TestRecordChunksFillTheirSizeClass(t *testing.T) {
	type base [48]byte
	const n = 32
	perChunk := func(alloc func(i int)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			alloc(i)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	if n := unsafe.Sizeof(record[base]{}); n != 52 {
		t.Fatalf("record of a 48-byte value is %d bytes, want 52", n)
	}
	var bases [n]*[recordChunk]record[base]
	var ptrs [n]*Column[*int]
	for _, c := range []struct {
		chunk      string
		class, got uint64
	}{
		{"315 records of 52 B", 16384, perChunk(func(i int) { bases[i] = new([recordChunk]record[base]) })},
		{"a column of 315 pointers", 2688, perChunk(func(i int) { ptrs[i] = &Column[*int]{}; ptrs[i].grow() })},
	} {
		// A stray allocation in the window, or a column's own header and
		// chunk list, adds a few bytes a chunk; the next class up is 384 B
		// away at least.
		if c.got < c.class || c.got > c.class+256 {
			t.Errorf("a chunk of %s takes %d B, want the %d B class", c.chunk, c.got, c.class)
		}
	}
	runtime.KeepAlive(&bases)
	runtime.KeepAlive(&ptrs)
}

// stamped is a value whose every field carries the same version stamp: a
// reader that sees two stamps saw half of one write and half of another.
type stamped [8]uint64

func stampOf(v uint64) (s stamped) {
	for i := range s {
		s[i] = v
	}
	return s
}

// TestGetCopiesAWholeRecord: writers swap, upsert, delete and re-insert
// records through the table's growth while readers get and range; under
// -race, and by the stamps, every value a reader holds is one whole write.
func TestGetCopiesAWholeRecord(t *testing.T) {
	tbl := New[stamped](nil, 0)
	const keys = 48 // below the first growth; the writers' new keys force several
	name := func(i int) string { return fmt.Sprintf("rec-%04d", i) }
	for i := 0; i < keys; i++ {
		tbl.Put(name(i), stampOf(1))
	}
	whole := func(s stamped) bool {
		for _, v := range s {
			if v != s[0] {
				return false
			}
		}
		return true
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 3000; i++ {
				k := name((i*7 + w) % keys)
				switch i % 5 {
				case 0, 1:
					tbl.Swap(k, stampOf(uint64(i)))
				case 2:
					upsert(tbl, k, func(cur stamped, ok bool) (stamped, bool) { return stampOf(cur[0] + 1), true })
				case 3:
					tbl.Delete(k)
					tbl.Put(k, stampOf(uint64(i)))
				case 4:
					tbl.Put(fmt.Sprintf("grow-%d-%d", w, i), stampOf(uint64(i)))
				}
			}
		}(w)
	}
	var bad sync.Once
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := tbl.Get(name((i + r) % keys)); ok && !whole(v) {
					bad.Do(func() { t.Errorf("Get returned mixed stamps %v", v) })
				}
				if i%64 == 0 {
					tbl.Range(func(_ string, v stamped, _ uint32) bool {
						if !whole(v) {
							bad.Do(func() { t.Errorf("Range yielded mixed stamps %v", v) })
						}
						return true
					})
				}
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if tbl.Buckets() <= initialBuckets {
		t.Error("the table never grew")
	}
}

// TestKeyViewsOutliveCompaction holds the strings Key and Range hand out
// while delete-heavy churn compacts the key arena and Clear empties the
// table, reading them from another goroutine throughout: their bytes never
// change, because no arena chunk is ever written again.
func TestKeyViewsOutliveCompaction(t *testing.T) {
	tbl := New[int](nil, 0)
	type held struct{ view, want string }
	var views []held
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("held-%06d", i)
		tbl.Put(k, i)
		if own, ok := tbl.Key(k); ok && i%2 == 0 {
			views = append(views, held{own, strings.Clone(own)})
		}
	}
	tbl.Range(func(k string, v int, _ uint32) bool {
		if v%2 == 1 {
			views = append(views, held{k, strings.Clone(k)})
		}
		return true
	})
	tbl.mu.RLock()
	first := unsafe.SliceData(tbl.keys.chunks[0])
	tbl.mu.RUnlock()

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			for _, h := range views {
				if h.view != h.want {
					t.Errorf("held key %q now reads %q", h.want, h.view)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for round := 0; round < 20; round++ {
		for i := 0; i < 2000; i++ {
			tbl.Delete(fmt.Sprintf("held-%06d", i))
			tbl.Delete(fmt.Sprintf("churn-%02d-%06d", round-1, i))
			tbl.Put(fmt.Sprintf("churn-%02d-%06d", round, i), i)
		}
	}
	tbl.mu.RLock()
	compacted := true
	for _, c := range tbl.keys.chunks {
		if unsafe.SliceData(c) == first {
			compacted = false
		}
	}
	tbl.mu.RUnlock()
	if !compacted {
		t.Error("churn never compacted the key arena")
	}
	tbl.Clear()
	tbl.Put("after-clear", 1)
	close(stop)
	<-done
	for _, h := range views {
		if h.view != h.want {
			t.Fatalf("held key %q now reads %q", h.want, h.view)
		}
	}
}

// fuzzKey maps a script byte to a key: the empty key, short keys, and
// every sixteenth a key long enough for a two-byte length prefix, so a
// long script's deletes compact the arena.
func fuzzKey(b byte) string {
	switch {
	case b == 0:
		return ""
	case b%16 == 0:
		return fmt.Sprintf("long-%d-", b) + strings.Repeat("x", 1000)
	}
	return fmt.Sprintf("k%d", b) + strings.Repeat("-", int(b%5))
}

// FuzzTableMatchesMap runs a script of Put, Swap, Edit, DeleteIf,
// Delete and Clear over up to 255 keys — several growths — against a
// map. After every op Len, Get, Key and Range agree with the map, and
// every key Key handed out earlier still reads the same.
func FuzzTableMatchesMap(f *testing.F) {
	grow := make([]byte, 0, 1024)
	for i := 1; i < 256; i++ {
		grow = append(grow, 0, byte(i))
	}
	f.Add(grow)
	churn := append([]byte(nil), grow...)
	for r := 0; r < 40; r++ {
		for i := 16; i < 256; i += 16 {
			churn = append(churn, 5, byte(i), 1, byte(i))
		}
	}
	f.Add(churn)
	f.Add([]byte{0, 1, 2, 1, 3, 1, 4, 1, 7, 255, 0, 0, 5, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		tbl := New[int](nil, 0)
		model := map[string]int{}
		type held struct{ view, want string }
		var views []held
		for i := 0; i+1 < len(script); i += 2 {
			op, k, v := script[i]%8, fuzzKey(script[i+1]), i
			cur, had := model[k]
			switch op {
			case 0, 1:
				if tbl.Put(k, v) != had {
					t.Fatalf("op %d: Put(%q) existed = %v", i, k, !had)
				}
				model[k] = v
			case 2:
				if old, ok := tbl.Swap(k, v); ok != had || old != cur {
					t.Fatalf("op %d: Swap(%q) = %d, %v; want %d, %v", i, k, old, ok, cur, had)
				}
				model[k] = v
			case 3:
				stored := upsert(tbl, k, func(c int, ok bool) (int, bool) {
					if ok != had || c != cur {
						t.Fatalf("op %d: Upsert(%q) saw %d, %v; want %d, %v", i, k, c, ok, cur, had)
					}
					if ok {
						return c + 1, c%2 == 0
					}
					return v, v%3 != 0
				})
				switch {
				case had && cur%2 == 0, !had && v%3 != 0:
					if !stored {
						t.Fatalf("op %d: Upsert(%q) did not store", i, k)
					}
					if had {
						model[k] = cur + 1
					} else {
						model[k] = v
					}
				case stored:
					t.Fatalf("op %d: Upsert(%q) stored against fn's answer", i, k)
				}
			case 4:
				if tbl.DeleteIf(k, func(c int, _ uint32) bool { return c%2 == 0 }) != (had && cur%2 == 0) {
					t.Fatalf("op %d: DeleteIf(%q) disagrees with the map", i, k)
				}
				if had && cur%2 == 0 {
					delete(model, k)
				}
			case 5, 6:
				if tbl.Delete(k) != had {
					t.Fatalf("op %d: Delete(%q) = %v", i, k, !had)
				}
				delete(model, k)
			case 7:
				if script[i+1] == 255 {
					tbl.Clear()
					clear(model)
				}
			}
			if tbl.Len() != len(model) {
				t.Fatalf("op %d: Len = %d, want %d", i, tbl.Len(), len(model))
			}
			want, ok := model[k]
			if got, gok := tbl.Get(k); gok != ok || got != want {
				t.Fatalf("op %d: Get(%q) = %d, %v; want %d, %v", i, k, got, gok, want, ok)
			}
			if own, kok := tbl.Key(k); kok != ok || own != k[:len(own)] || ok && own != k {
				t.Fatalf("op %d: Key(%q) = %q, %v", i, k, own, kok)
			} else if kok {
				views = append(views, held{own, strings.Clone(own)})
			}
			seen := 0
			tbl.Range(func(rk string, rv int, _ uint32) bool {
				if mv, ok := model[rk]; !ok || mv != rv {
					t.Fatalf("op %d: Range yields %q = %d, map has %d, %v", i, rk, rv, mv, ok)
				}
				seen++
				return true
			})
			if seen != len(model) {
				t.Fatalf("op %d: Range visits %d keys, want %d", i, seen, len(model))
			}
		}
		for _, h := range views {
			if h.view != h.want {
				t.Fatalf("a key Key handed out now reads %q, was %q", h.view, h.want)
			}
		}
	})
}
