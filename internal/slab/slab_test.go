package slab

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"sync"
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

// TestAllocSizeClasses states the class table as properties rather than
// pinning it: every request fits its class, no smaller class would do,
// classes grow strictly, and a slot is at most one eighth padding.
func TestAllocSizeClasses(t *testing.T) {
	if numClasses != 113 {
		t.Fatalf("numClasses = %d, want 113 (8 per doubling, 64 B to 1 MiB)", numClasses)
	}
	for c := 0; c < numClasses; c++ {
		size := classSize(c)
		if size%8 != 0 {
			t.Errorf("classSize(%d) = %d, not a multiple of 8", c, size)
		}
		if c > 0 && size <= classSize(c-1) {
			t.Errorf("classSize(%d) = %d does not exceed classSize(%d) = %d", c, size, c-1, classSize(c-1))
		}
		if got, err := classFor(size); err != nil || got != c {
			t.Errorf("classFor(classSize(%d)) = %d, %v", c, got, err)
		}
	}
	if classSize(0) != 64 || classSize(numClasses-1) != 1<<20 {
		t.Errorf("class range = [%d, %d], want [64, 1 MiB]", classSize(0), classSize(numClasses-1))
	}

	sizes := make([]int, 0, 4096+2000)
	for n := 1; n <= 4096; n++ {
		sizes = append(sizes, n)
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 2000; i++ {
		sizes = append(sizes, rng.Intn(1<<20)+1)
	}
	sort.Ints(sizes)
	prev := 0
	for _, n := range sizes {
		c, err := classFor(n)
		if err != nil {
			t.Fatalf("classFor(%d): %v", n, err)
		}
		slot := classSize(c)
		if slot < n {
			t.Fatalf("classFor(%d) = %d holds only %d bytes", n, c, slot)
		}
		if c < prev {
			t.Fatalf("classFor not monotone: classFor(%d) = %d after class %d", n, c, prev)
		}
		prev = c
		if c > 0 && classSize(c-1) >= n {
			t.Fatalf("classFor(%d) = %d, but class %d (%d B) already fits", n, c, c-1, classSize(c-1))
		}
		if n >= 64 && (slot-n)*8 > slot {
			t.Fatalf("classFor(%d): slot %d wastes %d bytes, over 12.5%%", n, slot, slot-n)
		}
	}

	if c, err := classFor(1 << 20); err != nil || c != numClasses-1 {
		t.Errorf("classFor(1MiB): %d, %v", c, err)
	}
	if _, err := classFor(1<<20 + 1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize: %v", err)
	}
	if _, err := New().Alloc(1<<20 + 1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize Alloc: %v", err)
	}
}

// TestFreeAndReuse: a freed slot serves the next allocation of its class
// even at a different size, and reads back at exactly the new size.
func TestFreeAndReuse(t *testing.T) {
	p := New()
	a, err := p.Alloc(4120) // 4 KiB value + nonce + MAC: the 4608-byte class
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(a, bytes.Repeat([]byte{0xAA}, 4120)); err != nil {
		t.Fatal(err)
	}
	p.Free(a)
	b, err := p.Alloc(4200) // same class, different size
	if err != nil {
		t.Fatal(err)
	}
	if a.class != b.class || a.chunk != b.chunk || a.off != b.off {
		t.Errorf("freed slot not reused: %+v vs %+v", a, b)
	}
	got, err := p.Read(b)
	if err != nil || len(got) != 4200 {
		t.Errorf("Read after reuse: %d bytes, %v; want 4200", len(got), err)
	}
	s := p.Stats()
	if s.Allocs != 2 || s.Frees != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.BytesInUse != 4608 || s.BytesRequested != 4200 {
		t.Errorf("in use %d, requested %d; want 4608, 4200", s.BytesInUse, s.BytesRequested)
	}
}

// TestChunkHoldsWholeSlots: a 1 MiB chunk of 4608-byte slots hands out
// floor(1 MiB / 4608) = 227 refs, and the 228th costs exactly one more
// growth — Growths is the grow_pool ocall count.
func TestChunkHoldsWholeSlots(t *testing.T) {
	var ocalls uint64
	p := New(WithGrowFunc(func(int) error {
		ocalls++
		return nil
	}))
	for i := 0; i < 227; i++ {
		if _, err := p.Alloc(4120); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.Growths != 1 || ocalls != 1 || s.BytesReserved != 227*4608 {
		t.Fatalf("after 227 allocs: growths %d, ocalls %d, reserved %d", s.Growths, ocalls, s.BytesReserved)
	}
	ref, err := p.Alloc(4120)
	if err != nil {
		t.Fatal(err)
	}
	if ref.chunk != 1 || ref.off != 0 {
		t.Errorf("228th ref = %+v, want the first slot of a second chunk", ref)
	}
	if s := p.Stats(); s.Growths != 2 || ocalls != 2 {
		t.Errorf("after 228 allocs: growths %d, ocalls %d, want 2", s.Growths, ocalls)
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

	for i := 0; i < 10000; i++ { // 10k × 64B = 640 KiB < 1 MiB
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
