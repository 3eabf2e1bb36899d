package hashtable

import (
	"fmt"
	"math/rand"
	"testing"
)

// narrowV and wideV are a two-layout value: wideV holds narrowV and more.
type narrowV struct {
	a uint64
	p *int
}

type wideV struct {
	narrowV
	b [2]uint64
}

func newTestDual(wide bool) *Dual[narrowV, wideV] {
	return NewDual(nil, 0, wide,
		func(w wideV) narrowV { return w.narrowV }, func(n narrowV) wideV { return wideV{narrowV: n} })
}

// TestDualMatchesModel drives both layouts with one random sequence of every
// call against a map: a wide Dual keeps whole values, a narrow one the
// narrow part of each and zero for the rest.
func TestDualMatchesModel(t *testing.T) {
	for _, wide := range []bool{false, true} {
		t.Run(fmt.Sprintf("wide=%v", wide), func(t *testing.T) {
			d, model := newTestDual(wide), map[string]wideV{}
			if d.Wide() != wide {
				t.Fatalf("Wide() = %v", d.Wide())
			}
			kept := func(v wideV) wideV {
				if !wide {
					v.b = [2]uint64{}
				}
				return v
			}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 20000; i++ {
				key := fmt.Sprintf("k%03d", rng.Intn(300))
				v := wideV{narrowV: narrowV{a: uint64(rng.Intn(1000))}, b: [2]uint64{uint64(i), 7}}
				want, present := model[key]
				switch rng.Intn(6) {
				case 0:
					if old, ok := d.Swap(key, v); ok != present || old != want {
						t.Fatalf("Swap(%s) = %+v, %v; want %+v, %v", key, old, ok, want, present)
					}
					model[key] = kept(v)
				case 1:
					if got, ok := d.Get(key); ok != present || got != want {
						t.Fatalf("Get(%s) = %+v, %v; want %+v, %v", key, got, ok, want, present)
					}
				case 2: // newest-wins, as the value log applies versions
					stored := d.Upsert(key, func(cur wideV, exists bool) (wideV, bool) {
						if exists != present || cur != want {
							t.Fatalf("Upsert(%s) saw %+v, %v; want %+v, %v", key, cur, exists, want, present)
						}
						return v, !exists || cur.a < v.a
					})
					if stored != (!present || want.a < v.a) {
						t.Fatalf("Upsert(%s) stored = %v", key, stored)
					}
					if stored {
						model[key] = kept(v)
					}
				case 3:
					even := func(cur wideV) bool { return cur.a%2 == 0 }
					if d.DeleteIf(key, even) != (present && even(want)) {
						t.Fatalf("DeleteIf(%s) disagrees", key)
					}
					if present && even(want) {
						delete(model, key)
					}
				case 4:
					if d.Delete(key) != present {
						t.Fatalf("Delete(%s) disagrees", key)
					}
					delete(model, key)
				case 5:
					if own, ok := d.Key(key); ok != present || ok && own != key {
						t.Fatalf("Key(%s) = %q, %v", key, own, ok)
					}
					if d.Put(key, v) != present {
						t.Fatalf("Put(%s) disagrees", key)
					}
					model[key] = kept(v)
				}
			}
			if d.Len() != len(model) {
				t.Fatalf("Len = %d, want %d", d.Len(), len(model))
			}
			seen := 0
			d.Range(func(key string, v wideV) bool {
				if want, ok := model[key]; !ok || v != want {
					t.Fatalf("Range: %s = %+v, want %+v (present %v)", key, v, want, ok)
				}
				seen++
				return true
			})
			if seen != len(model) {
				t.Fatalf("Range saw %d entries, want %d", seen, len(model))
			}
			d.Clear()
			if _, ok := d.Get("k000"); ok || d.Len() != 0 {
				t.Fatal("entries survived Clear")
			}
		})
	}
}

// TestDualCallbacksDoNotEscape: a narrow Dual wraps the callbacks it passes
// on, yet a call whose callback captures the caller's variables allocates
// nothing — neither the caller's closure nor the wrapper escapes.
func TestDualCallbacksDoNotEscape(t *testing.T) {
	for _, wide := range []bool{false, true} {
		d := newTestDual(wide)
		for i := 0; i < 64; i++ {
			d.Put(fmt.Sprintf("k%02d", i), wideV{narrowV: narrowV{a: uint64(i)}})
		}
		var seen, floor uint64
		calls := map[string]func(){
			"Get": func() { v, _ := d.Get("k07"); seen += v.a },
			"Swap": func() {
				v, _ := d.Swap("k07", wideV{narrowV: narrowV{a: 7}})
				seen += v.a
			},
			"Upsert": func() {
				d.Upsert("k08", func(cur wideV, _ bool) (wideV, bool) {
					seen += cur.a
					return cur, cur.a > floor
				})
			},
			"DeleteIf": func() { d.DeleteIf("k09", func(cur wideV) bool { return cur.a < floor }) },
			"Range": func() {
				d.Range(func(_ string, v wideV) bool {
					seen += v.a
					return v.a < floor
				})
			},
		}
		for name, call := range calls {
			if n := testing.AllocsPerRun(100, call); n != 0 {
				t.Errorf("wide=%v %s: %.1f allocs per call, want 0", wide, name, n)
			}
		}
	}
}
