package hashtable

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// wideV is a record seen whole: the table's value and two columns, one of
// them pointer-typed.
type wideV struct {
	a uint64
	b [2]uint64
	p *int
}

// colTable is a table with columns for wideV's b and p, and wideV's load
// and store through them, as a store keeps its mode fields.
type colTable struct {
	*Table[uint64]
	b *Column[[2]uint64]
	p *Column[*int]
}

func newColTable() *colTable {
	t := &colTable{Table: New[uint64](nil, 0)}
	t.b = NewColumn[[2]uint64](t.Table, true)
	t.p = NewColumn[*int](t.Table, true)
	return t
}

func (t *colTable) load(a uint64, rec uint32) wideV {
	v := wideV{a: a}
	t.b.Load(rec, &v.b)
	t.p.Load(rec, &v.p)
	return v
}

func (t *colTable) store(a *uint64, rec uint32, v wideV) {
	*a = v.a
	t.b.Store(rec, v.b)
	t.p.Store(rec, v.p)
}

// TestColumnsMatchModel drives one random sequence of every call through a
// table with two columns against a map of whole values. Deleted records are
// reused, so a column cell that outlived its record, or an insert that wrote
// only the record, would show up as a stale field.
func TestColumnsMatchModel(t *testing.T) {
	tbl, model := newColTable(), map[string]wideV{}
	ptrs := []*int{new(int), new(int), nil}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("k%03d", rng.Intn(300))
		v := wideV{a: uint64(rng.Intn(1000)), b: [2]uint64{uint64(i), 7}, p: ptrs[i%len(ptrs)]}
		want, present := model[key]
		switch rng.Intn(7) {
		case 0: // a put of the whole value
			var old wideV
			tbl.Edit(key, func(a *uint64, rec uint32, exists bool) bool {
				old = tbl.load(*a, rec)
				tbl.store(a, rec, v)
				return true
			})
			if old != want {
				t.Fatalf("put(%s) replaced %+v, want %+v", key, old, want)
			}
			model[key] = v
		case 1:
			var got wideV
			if ok := tbl.Read(key, func(a uint64, rec uint32) { got = tbl.load(a, rec) }); ok != present || got != want {
				t.Fatalf("Read(%s) = %+v, %v; want %+v, %v", key, got, ok, want, present)
			}
		case 2: // newest-wins, as the value log applies versions
			stored := tbl.Edit(key, func(a *uint64, rec uint32, exists bool) bool {
				if cur := tbl.load(*a, rec); exists != present || cur != want {
					t.Fatalf("Edit(%s) saw %+v, %v; want %+v, %v", key, cur, exists, want, present)
				}
				if exists && *a >= v.a {
					return false
				}
				tbl.store(a, rec, v)
				return true
			})
			if stored != (!present || want.a < v.a) {
				t.Fatalf("Edit(%s) stored = %v", key, stored)
			}
			if stored {
				model[key] = v
			}
		case 3: // an insert the callback declines after writing the columns
			if !present {
				if tbl.Edit(key, func(a *uint64, rec uint32, _ bool) bool { tbl.store(a, rec, v); return false }) {
					t.Fatalf("declined Edit(%s) reported a store", key)
				}
			}
		case 4:
			even := func(a uint64, _ uint32) bool { return a%2 == 0 }
			if tbl.DeleteIf(key, even) != (present && even(want.a, 0)) {
				t.Fatalf("DeleteIf(%s) disagrees", key)
			}
			if present && even(want.a, 0) {
				delete(model, key)
			}
		case 5:
			if tbl.Delete(key) != present {
				t.Fatalf("Delete(%s) disagrees", key)
			}
			delete(model, key)
		case 6: // a put of the record alone: its columns must read zero
			if own, ok := tbl.Key(key); ok != present || ok && own != key {
				t.Fatalf("Key(%s) = %q, %v", key, own, ok)
			}
			if tbl.Put(key, v.a) != present {
				t.Fatalf("Put(%s) disagrees", key)
			}
			want.a = v.a
			if !present {
				want = wideV{a: v.a}
			}
			model[key] = want
		}
	}
	if tbl.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", tbl.Len(), len(model))
	}
	seen := 0
	tbl.Range(func(key string, a uint64, rec uint32) bool {
		if want, ok := model[key]; !ok || tbl.load(a, rec) != want {
			t.Fatalf("Range: %s = %+v, want %+v (present %v)", key, tbl.load(a, rec), want, ok)
		}
		seen++
		return true
	})
	if seen != len(model) {
		t.Fatalf("Range saw %d entries, want %d", seen, len(model))
	}
	tbl.Clear()
	tbl.Put("k000", 1)
	if !tbl.Read("k000", func(a uint64, rec uint32) {
		if v := tbl.load(a, rec); v != (wideV{a: 1}) {
			t.Fatalf("after Clear a new key reads %+v", v)
		}
	}) || tbl.Len() != 1 {
		t.Fatal("entries survived Clear")
	}
}

// TestColumnMadeLate: a column made on a table that already holds records
// gets a chunk beside each of their chunks, and reads zero for each.
func TestColumnMadeLate(t *testing.T) {
	tbl := New[int](nil, 0)
	const n = 2*recordChunk + 5
	for i := 0; i < n; i++ {
		tbl.Put(fmt.Sprint(i), i)
	}
	c := NewColumn[string](tbl, true)
	tbl.Range(func(_ string, v int, rec uint32) bool {
		s := "stale"
		if c.Load(rec, &s); s != "" {
			t.Fatalf("record %d: a late column reads %q", rec, s)
		}
		c.Store(rec, strings.Repeat("x", v%7))
		return true
	})
	tbl.Put("one-more", -1)
	tbl.Range(func(_ string, v int, rec uint32) bool {
		var s string
		if c.Load(rec, &s); v >= 0 && s != strings.Repeat("x", v%7) {
			t.Fatalf("record %d reads %q", rec, s)
		}
		return true
	})
	var off *Column[int]
	x := 7
	off.Store(0, 1)
	if off.Load(0, &x); x != 7 {
		t.Errorf("a column that is off loaded %d", x)
	}
}

// TestColumnCallbacksDoNotEscape: the callbacks a caller hands Read, Edit,
// DeleteIf and Range capture the caller's variables and load and store
// columns, yet a call allocates nothing — no closure escapes, so a store
// built on them adds no allocation to a put or a get.
func TestColumnCallbacksDoNotEscape(t *testing.T) {
	tbl := newColTable()
	for i := 0; i < 64; i++ {
		tbl.Edit(fmt.Sprintf("k%02d", i), func(a *uint64, rec uint32, _ bool) bool {
			tbl.store(a, rec, wideV{a: uint64(i), b: [2]uint64{1, 2}})
			return true
		})
	}
	var seen, floor uint64
	calls := map[string]func(){
		"Read": func() { tbl.Read("k07", func(a uint64, rec uint32) { seen += tbl.load(a, rec).b[0] }) },
		"Edit": func() {
			tbl.Edit("k08", func(a *uint64, rec uint32, exists bool) bool {
				v := tbl.load(*a, rec)
				seen += v.a
				tbl.store(a, rec, v)
				return v.a > floor
			})
		},
		"Swap": func() {
			v, _ := tbl.Swap("k07", 7)
			seen += v
		},
		"DeleteIf": func() { tbl.DeleteIf("k09", func(a uint64, _ uint32) bool { return a < floor }) },
		"Range": func() {
			tbl.Range(func(_ string, a uint64, rec uint32) bool {
				seen += tbl.load(a, rec).b[1]
				return a < floor
			})
		},
	}
	for name, call := range calls {
		if n := testing.AllocsPerRun(100, call); n != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", name, n)
		}
	}
}

// TestKeyRefLimits: a key's place is 16 bits of chunk and 16 of offset. The
// last keys of a full 64 KiB chunk sit past offset 65 000 and read back; a
// key longer than a chunk starts a chunk of its own, at offset 0; and the
// arena refuses to make a chunk past its 65 536th — a place would wrap onto
// chunk 0 — with a panic, not a wrong key.
func TestKeyRefLimits(t *testing.T) {
	var a arena
	var refs []keyRef
	var keys []string
	top := 0
	for i := 0; len(a.chunks) < 9; i++ { // chunks of 1, 2, 4, … 64 KiB, then a ninth
		k := fmt.Sprintf("%04d", i) + strings.Repeat("k", 96)
		ref := a.add(k)
		refs, keys = append(refs, ref), append(keys, k)
		if ref>>16 == 7 {
			top = max(top, int(ref&0xffff))
		}
	}
	if top < 65000 {
		t.Errorf("the 64 KiB chunk's last key is at offset %d, want past 65 000", top)
	}
	long := strings.Repeat("L", arenaMaxChunk+100)
	refs, keys = append(refs, a.add(long)), append(keys, long)
	if ref := refs[len(refs)-1]; ref&0xffff != 0 || int(ref>>16) != len(a.chunks)-1 {
		t.Errorf("a key longer than a chunk is at chunk %d offset %d, want a chunk of its own", ref>>16, ref&0xffff)
	}
	refs, keys = append(refs, a.add("after")), append(keys, "after")
	for i, ref := range refs {
		if got := a.key(ref); got != keys[i] || !a.equal(ref, keys[i]) {
			t.Fatalf("key %d reads back %d bytes %.12q…, want %.12q…", i, len(got), got, keys[i])
		}
	}

	a = arena{chunks: make([][]byte, arenaMaxChunks-1)} // empty chunks before the last one allowed
	last := a.add("x")
	if last>>16 != arenaMaxChunks-1 || a.key(last) != "x" {
		t.Fatalf("the last chunk's key is at %#x, reads %q", last, a.key(last))
	}
	defer func() {
		if recover() == nil {
			t.Error("a key past the last chunk was placed")
		}
		if len(a.chunks) != arenaMaxChunks || a.key(last) != "x" {
			t.Errorf("the refused key changed the arena: %d chunks, last key %q", len(a.chunks), a.key(last))
		}
	}()
	a.add("y") // the last chunk holds exactly "x": "y" needs one more
}
