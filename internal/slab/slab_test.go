package slab

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestAllocWriteRead(t *testing.T) {
	p := New()
	ref, err := p.Alloc(100)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if ref.Size() != 100 {
		t.Errorf("Size = %d", ref.Size())
	}
	data := bytes.Repeat([]byte{0xAB}, 100)
	if err := p.Write(ref, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := p.Read(ref)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read mismatch")
	}
}

// framings are the pool framings the class properties are stated over: none
// (New()), and the three stored forms of internal/core — hardened (nonce),
// base (nonce + MAC) and server encryption (GCM nonce + tag).
var framings = []int{0, 8, 24, 28}

// TestAllocSizeClasses states the class table as properties rather than
// pinning it, under every framing: every value size of the grid fills its
// slot exactly, every request fits its class, no smaller class would do,
// classes grow strictly, and a slot is under one ninth padding.
func TestAllocSizeClasses(t *testing.T) {
	if numClasses != 121 {
		t.Fatalf("numClasses = %d, want 121 (8 per doubling, 32 B to 1 MiB of value)", numClasses)
	}
	for _, f := range framings {
		for c := 0; c < numClasses; c++ {
			size := classSize(c, f)
			if c > 0 && size <= classSize(c-1, f) {
				t.Errorf("framing %d: classSize(%d) = %d does not exceed classSize(%d) = %d", f, c, size, c-1, classSize(c-1, f))
			}
			if got, err := classFor(size, f); err != nil || got != c {
				t.Errorf("framing %d: classFor(classSize(%d)) = %d, %v", f, c, got, err)
			}
		}
		if lo, hi := classSize(0, f), classSize(numClasses-1, f); lo != 32+f || hi != 1<<20+f {
			t.Errorf("framing %d: class range = [%d, %d], want [32, 1 MiB] + framing", f, lo, hi)
		}

		// Every value size 2^k·(1 + j/8) takes a slot with no padding.
		p := New(WithFraming(f), WithGrowStep(1))
		for k := 5; k < 20; k++ {
			for j := 0; j < 8; j++ {
				v := 1<<k + j<<(k-3)
				if _, err := p.Alloc(v + f); err != nil {
					t.Fatalf("framing %d: Alloc(%d + %d): %v", f, v, f, err)
				}
			}
		}
		if _, err := p.Alloc(1<<20 + f); err != nil {
			t.Fatalf("framing %d: Alloc(1 MiB + %d): %v", f, f, err)
		}
		if s := p.Stats(); s.BytesInUse != s.BytesRequested {
			t.Errorf("framing %d: grid values hold %d bytes in slots of %d: %d bytes of padding",
				f, s.BytesRequested, s.BytesInUse, s.BytesInUse-s.BytesRequested)
		}

		values := make([]int, 0, 4096+2000)
		for v := 1; v <= 4096; v++ {
			values = append(values, v)
		}
		rng := rand.New(rand.NewSource(20))
		for i := 0; i < 2000; i++ {
			values = append(values, rng.Intn(1<<20)+1)
		}
		sort.Ints(values)
		prev := 0
		for _, v := range values {
			n := v + f
			c, err := classFor(n, f)
			if err != nil {
				t.Fatalf("framing %d: classFor(%d): %v", f, n, err)
			}
			slot := classSize(c, f)
			if slot < n {
				t.Fatalf("framing %d: classFor(%d) = %d holds only %d bytes", f, n, c, slot)
			}
			if c < prev {
				t.Fatalf("framing %d: classFor not monotone: classFor(%d) = %d after class %d", f, n, c, prev)
			}
			prev = c
			if c > 0 && classSize(c-1, f) >= n {
				t.Fatalf("framing %d: classFor(%d) = %d, but class %d (%d B) already fits", f, n, c, c-1, classSize(c-1, f))
			}
			if v >= 32 && (slot-n)*9 >= slot {
				t.Fatalf("framing %d: classFor(%d): slot %d wastes %d bytes, not under 1/9", f, n, slot, slot-n)
			}
		}

		if c, err := classFor(1<<20+f, f); err != nil || c != numClasses-1 {
			t.Errorf("framing %d: classFor(1 MiB + framing): %d, %v", f, c, err)
		}
		if _, err := classFor(1<<20+f+1, f); !errors.Is(err, ErrTooLarge) {
			t.Errorf("framing %d: oversize: %v", f, err)
		}
		if _, err := New(WithFraming(f)).Alloc(1<<20 + f + 1); !errors.Is(err, ErrTooLarge) {
			t.Errorf("framing %d: oversize Alloc: %v", f, err)
		}
	}
}

// TestFreeAndReuse: a freed slot serves the next allocation of its class
// even at a different size, and reads back at exactly the new size.
func TestFreeAndReuse(t *testing.T) {
	const framing = 24
	c, _ := classFor(4096+framing, framing) // 4 KiB value + nonce + MAC
	slot := classSize(c, framing)
	p := New(WithFraming(framing))
	a, err := p.Alloc(4096 + framing)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(a, bytes.Repeat([]byte{0xAA}, 4096+framing)); err != nil {
		t.Fatal(err)
	}
	p.Free(a)
	b, err := p.Alloc(slot - 100) // same class, different size
	if err != nil {
		t.Fatal(err)
	}
	if a.chunk != b.chunk || a.off != b.off {
		t.Errorf("freed slot not reused: %+v vs %+v", a, b)
	}
	got, err := p.Read(b)
	if err != nil || len(got) != slot-100 {
		t.Errorf("Read after reuse: %d bytes, %v; want %d", len(got), err, slot-100)
	}
	s := p.Stats()
	if s.Allocs != 2 || s.Frees != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.BytesInUse != int64(slot) || s.BytesRequested != int64(slot-100) {
		t.Errorf("in use %d, requested %d; want %d, %d", s.BytesInUse, s.BytesRequested, slot, slot-100)
	}
}

// TestChunkHoldsWholeSlots: a 1 MiB chunk of 4 KiB-value slots hands out
// floor(1 MiB / slot) refs, and the next one costs exactly one more growth
// — Growths is the grow_pool ocall count.
func TestChunkHoldsWholeSlots(t *testing.T) {
	const framing, n = 24, 4096 + 24
	c, _ := classFor(n, framing)
	slot := classSize(c, framing)
	perChunk := (1 << 20) / slot
	var ocalls uint64
	p := New(WithFraming(framing), WithGrowFunc(func(int) error {
		ocalls++
		return nil
	}))
	for i := 0; i < perChunk; i++ {
		if _, err := p.Alloc(n); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.Growths != 1 || ocalls != 1 || s.BytesReserved != int64(perChunk*slot) {
		t.Fatalf("after %d allocs: growths %d, ocalls %d, reserved %d", perChunk, s.Growths, ocalls, s.BytesReserved)
	}
	ref, err := p.Alloc(n)
	if err != nil {
		t.Fatal(err)
	}
	if ref.chunk != 1 || ref.off != 0 {
		t.Errorf("ref %d = %+v, want the first slot of a second chunk", perChunk+1, ref)
	}
	if s := p.Stats(); s.Growths != 2 || ocalls != 2 {
		t.Errorf("after %d allocs: growths %d, ocalls %d, want 2", perChunk+1, s.Growths, ocalls)
	}
}

// TestConcurrentGrowthKeepsEverySlotReachable: two allocators that both
// find their class full both call GrowFunc outside the lock. The second to
// come back must take a slot of the first one's chunk: appending a chunk of
// its own would move the bump cursor off the first chunk and strand all
// but one of its slots for good.
func TestConcurrentGrowthKeepsEverySlotReachable(t *testing.T) {
	const n = 4096 + 24
	var parked sync.WaitGroup
	parked.Add(2)
	var calls atomic.Int32
	p := New(WithFraming(24), WithGrowFunc(func(int) error {
		if calls.Add(1) <= 2 {
			parked.Done()
			parked.Wait() // both allocators are out of the lock, both missed
		}
		return nil
	}))
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Alloc(n); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	c, _ := classFor(n, 24)
	perChunk := (1 << 20) / classSize(c, 24)
	for i := 2; i < 2*perChunk; i++ {
		if _, err := p.Alloc(n); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.BytesReserved != s.BytesInUse {
		t.Errorf("%d slots in use hold %d bytes, but %d are reserved in %d chunks: %d bytes unreachable",
			2*perChunk, s.BytesInUse, s.BytesReserved, s.Growths, s.BytesReserved-s.BytesInUse)
	}
}

// TestGrowOcallBatching: many small allocations must trigger few growth
// callbacks — the paper's "single ocall called periodically" property.
func TestGrowOcallBatching(t *testing.T) {
	var growths int
	p := New(WithGrowFunc(func(n int) error {
		growths++
		return nil
	}), WithGrowStep(1<<20))

	for i := 0; i < 10000; i++ { // 10k × 32 B = 320 KiB < 1 MiB
		if _, err := p.Alloc(32); err != nil {
			t.Fatal(err)
		}
	}
	if growths != 1 {
		t.Errorf("growths = %d, want 1 for 10k small allocs", growths)
	}
}

func TestGrowFailurePropagates(t *testing.T) {
	sentinel := errors.New("ocall failed")
	p := New(WithGrowFunc(func(n int) error { return sentinel }))
	if _, err := p.Alloc(64); !errors.Is(err, sentinel) {
		t.Errorf("got %v", err)
	}
}

// TestRefClassFollowsSize: a Ref names no size class, its size does. A
// slot on either side of a class boundary, freed and allocated again at
// another size of its class, comes back with its own bytes, never the other
// class's; and a Ref whose size maps to no class reads ErrBadRef.
func TestRefClassFollowsSize(t *testing.T) {
	const framing = 24
	p := New(WithFraming(framing))
	edge := classSize(5, framing) // the largest size of class 5; one more is class 6
	below, err := p.Alloc(edge)
	if err != nil {
		t.Fatal(err)
	}
	above, err := p.Alloc(edge + 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		ref  Ref
		fill byte
	}{{below, 'b'}, {above, 'a'}} {
		if err := p.Write(w.ref, bytes.Repeat([]byte{w.fill}, w.ref.Size())); err != nil {
			t.Fatal(err)
		}
	}
	p.Free(below)
	p.Free(above)
	// The other end of each class, in the other order.
	again6, err := p.Alloc(classSize(6, framing))
	if err != nil {
		t.Fatal(err)
	}
	again5, err := p.Alloc(classSize(4, framing) + 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		got, freed Ref
		fill       byte
	}{{"class 6", again6, above, 'a'}, {"class 5", again5, below, 'b'}} {
		if c.got.chunk != c.freed.chunk || c.got.off != c.freed.off {
			t.Errorf("%s: reallocated at %d/%d, freed slot was %d/%d", c.name, c.got.chunk, c.got.off, c.freed.chunk, c.freed.off)
		}
		buf, err := p.Read(c.got)
		if err != nil || len(buf) != c.got.Size() {
			t.Fatalf("%s: Read = %d bytes, %v", c.name, len(buf), err)
		}
		if n := min(len(buf), c.freed.Size()); !bytes.Equal(buf[:n], bytes.Repeat([]byte{c.fill}, n)) {
			t.Errorf("%s: the reused slot holds another class's bytes", c.name)
		}
	}
	for _, c := range []int{5, 6} {
		if n := len(p.classes[c].free); n != 0 {
			t.Errorf("class %d keeps %d free slots after both were reused", c, n)
		}
	}

	before := p.Stats()
	bad := again5
	bad.size = 1<<maxClassShift + framing + 1 // past the largest class
	if _, err := p.Read(bad); !errors.Is(err, ErrBadRef) {
		t.Errorf("Read of a size with no class: %v, want ErrBadRef", err)
	}
	if err := p.Write(bad, []byte("x")); !errors.Is(err, ErrBadRef) {
		t.Errorf("Write of a size with no class: %v, want ErrBadRef", err)
	}
	if p.Free(bad); p.Stats() != before {
		t.Errorf("Free of a size with no class changed the stats: %+v, was %+v", p.Stats(), before)
	}
}

func TestBadRefs(t *testing.T) {
	p := New()
	if _, err := p.Read(Ref{}); !errors.Is(err, ErrBadRef) {
		t.Errorf("zero ref read: %v", err)
	}
	if err := p.Write(Ref{size: 10, chunk: 99}, []byte("x")); !errors.Is(err, ErrBadRef) {
		t.Errorf("bogus chunk: %v", err)
	}
	ref, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(ref, make([]byte, 65)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("overfull write: %v", err)
	}
}

// TestAllocationsDisjoint is the core safety property: live allocations
// must never overlap, or clients would corrupt each other's payloads.
func TestAllocationsDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New()
		type live struct {
			ref  Ref
			data []byte
		}
		var lives []live
		for i := 0; i < 300; i++ {
			if len(lives) > 0 && rng.Intn(3) == 0 {
				idx := rng.Intn(len(lives))
				p.Free(lives[idx].ref)
				lives = append(lives[:idx], lives[idx+1:]...)
				continue
			}
			n := rng.Intn(2000) + 1
			ref, err := p.Alloc(n)
			if err != nil {
				return false
			}
			data := make([]byte, n)
			rng.Read(data)
			if err := p.Write(ref, data); err != nil {
				return false
			}
			lives = append(lives, live{ref, data})
		}
		for _, l := range lives {
			got, err := p.Read(l.ref)
			if err != nil || !bytes.Equal(got, l.data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			pattern := bytes.Repeat([]byte{byte(id + 1)}, 256)
			for i := 0; i < 500; i++ {
				ref, err := p.Alloc(256)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				if err := p.Write(ref, pattern); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				got, err := p.Read(ref)
				if err != nil || !bytes.Equal(got, pattern) {
					t.Errorf("read-back corrupted for goroutine %d", id)
					return
				}
				p.Free(ref)
			}
		}(g)
	}
	wg.Wait()
}

func TestStatsAccounting(t *testing.T) {
	p := New(WithGrowStep(1 << 16))
	refs := make([]Ref, 0, 100)
	for i := 0; i < 100; i++ {
		r, err := p.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	s := p.Stats()
	if s.BytesInUse != 100*64 || s.BytesRequested != 100*64 {
		t.Errorf("BytesInUse = %d, BytesRequested = %d", s.BytesInUse, s.BytesRequested)
	}
	if s.BytesReserved < s.BytesInUse {
		t.Errorf("reserved %d < in use %d", s.BytesReserved, s.BytesInUse)
	}
	for _, r := range refs {
		p.Free(r)
	}
	if s := p.Stats(); s.BytesInUse != 0 || s.BytesRequested != 0 {
		t.Errorf("after frees: BytesInUse = %d, BytesRequested = %d", s.BytesInUse, s.BytesRequested)
	}
}
