package slab

import (
	"testing"
	"testing/quick"
)

// TestClassBoundariesQuick: every allocation lands in a class at least as
// large as the request, and no smaller class would hold it, under every
// framing.
func TestClassBoundariesQuick(t *testing.T) {
	f := func(n uint32, fi uint8) bool {
		framing := framings[int(fi)%len(framings)]
		size := int(n%(1<<20)) + framing
		if size == 0 {
			size = 1
		}
		class, err := classFor(size, framing)
		if err != nil {
			return false
		}
		slot := classSize(class, framing)
		if slot < size {
			return false
		}
		// Tightness: the next-smaller class (if any) must not fit.
		if class > 0 && classSize(class-1, framing) >= size {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestReuseAcrossClasses: frees in one class never satisfy allocations in
// another.
func TestReuseAcrossClasses(t *testing.T) {
	p := New()
	smallest := classSize(0, 0)
	small, err := p.Alloc(smallest)
	if err != nil {
		t.Fatal(err)
	}
	p.Free(small)
	big, err := p.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.classes[0].free) != 1 || big.Size() != 1024 {
		t.Error("1KiB allocation reused the smallest class")
	}
	// But a same-class allocation does reuse it.
	again, err := p.Alloc(smallest / 2)
	if err != nil {
		t.Fatal(err)
	}
	if again.chunk != small.chunk || again.off != small.off {
		t.Errorf("smallest slot not reused: %+v vs %+v", again, small)
	}
}

// TestZeroAndOneByteAllocations exercise the minimum class.
func TestZeroAndOneByteAllocations(t *testing.T) {
	p := New()
	smallest := classSize(0, 0)
	for _, n := range []int{0, 1, smallest - 1, smallest} {
		ref, err := p.Alloc(n)
		if err != nil {
			t.Fatalf("alloc %d: %v", n, err)
		}
		want := n
		if want == 0 {
			want = 1 // zero-byte requests take the minimum slot
		}
		if ref.Size() != want {
			t.Errorf("alloc %d: size %d", n, ref.Size())
		}
		if !ref.Valid() {
			t.Errorf("alloc %d: invalid ref", n)
		}
		if _, err := p.Read(ref); err != nil {
			t.Errorf("alloc %d: read: %v", n, err)
		}
	}
}
