package sgx

import (
	"errors"
	"sync"
	"testing"
)

func newTestPlatform(t *testing.T, opts ...PlatformOption) *Platform {
	t.Helper()
	p, err := NewPlatform(opts...)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	return p
}

func TestEnclaveMeasurementDeterministic(t *testing.T) {
	p := newTestPlatform(t)
	a := p.CreateEnclave([]byte("image-v1"), 10)
	b := p.CreateEnclave([]byte("image-v1"), 10)
	c := p.CreateEnclave([]byte("image-v2"), 10)
	if a.Measurement() != b.Measurement() {
		t.Error("same image produced different measurements")
	}
	if a.Measurement() == c.Measurement() {
		t.Error("different images produced the same measurement")
	}
}

func TestAllocTracksWorkingSet(t *testing.T) {
	p := newTestPlatform(t)
	e := p.CreateEnclave([]byte("img"), 42)

	if got := e.Stats().EPCPages; got != 42 {
		t.Fatalf("initial pages = %d, want image pages 42", got)
	}
	if _, err := e.Alloc(PageSize); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().EPCPages; got != 43 {
		t.Errorf("after 1-page alloc: %d pages, want 43", got)
	}
	if _, err := e.Alloc(10*PageSize + 1); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().EPCPages; got != 54 {
		t.Errorf("after 11-page alloc: %d pages, want 54", got)
	}
	if got := e.Stats().HeapBytes; got != int64(PageSize+10*PageSize+1) {
		t.Errorf("heap bytes = %d", got)
	}
}

func TestFreeRetiresPages(t *testing.T) {
	p := newTestPlatform(t)
	e := p.CreateEnclave([]byte("img"), 0)
	r, err := e.Alloc(4 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	if before.EPCPages < 4 {
		t.Fatalf("pages before free = %d", before.EPCPages)
	}
	e.Free(r)
	after := e.Stats()
	if after.HeapBytes != 0 {
		t.Errorf("heap bytes after free = %d, want 0", after.HeapBytes)
	}
	// The working set reflects active pages (sgx-perf semantics): freed
	// pages leave it, so a table that grows by replacement is counted at
	// its current size only.
	if after.EPCPages != 0 {
		t.Errorf("working set after free: %d -> %d, want 0", before.EPCPages, after.EPCPages)
	}
}

// TestFreeLeavesNeighbourPages: freeing a region whose size is an exact
// page multiple retires its own pages and nothing else. Free used to walk
// one page past the end, so the region allocated next lost its first page
// from the working set and from residency until it was touched again —
// every hash-table mirror from 1024 buckets up (92 B x 2^k) and every
// 4096-byte inline value is such a region. The benchmark's epc_mib is the
// same before and after the fix: its workloads allocate nothing between two
// table growths, so the page past a freed table was never a live one.
func TestFreeLeavesNeighbourPages(t *testing.T) {
	p := newTestPlatform(t)
	e := p.CreateEnclave([]byte("img"), 0)
	a, err := e.Alloc(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b.Touch(0, 100)
	before := e.Stats()
	if before.EPCPages != 3 {
		t.Fatalf("pages before free = %d, want 3", before.EPCPages)
	}
	e.Free(a)
	after := e.Stats()
	if got := before.EPCPages - after.EPCPages; got != 2 {
		t.Errorf("free of a 2-page region retired %d pages", got)
	}
	if after.HeapBytes != 100 {
		t.Errorf("heap bytes after free = %d, want 100", after.HeapBytes)
	}
	e.mu.Lock()
	inSet := e.pages.has(b.base / PageSize)
	resident := e.resident.has(b.base / PageSize)
	e.mu.Unlock()
	if !inSet || !resident {
		t.Errorf("neighbour's page: in working set %v, resident %v; want both", inSet, resident)
	}
	b.Touch(0, 100)
	if faults := e.Stats().PageFaults; faults != 0 {
		t.Errorf("touching the neighbour after the free faulted %d times", faults)
	}
}

// TestSmallRegionsSharePages: a region of at most 64 bytes takes a slot of a
// page carved into slots of its size class, not a page of its own; the page
// stays in the working set while any of its slots is live, a freed slot is
// taken again before a page is carved, and a small region and its bytes are
// one allocation.
func TestSmallRegionsSharePages(t *testing.T) {
	p := newTestPlatform(t)
	e := p.CreateEnclave([]byte("img"), 0)
	var first []*Region
	for i := 0; i < PageSize/64; i++ {
		r, err := e.Alloc(40 + i%25) // 40..64 bytes: the 64 B class
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Data) != r.Size() || cap(r.Data) != r.Size() {
			t.Fatalf("region of %d B has len %d cap %d", r.Size(), len(r.Data), cap(r.Data))
		}
		for j := range r.Data {
			r.Data[j] = byte(i)
		}
		first = append(first, r)
	}
	if got := e.Stats().EPCPages; got != 1 {
		t.Fatalf("64 regions of the 64 B class take %d pages, want 1", got)
	}
	for i, r := range first {
		for _, b := range r.Data {
			if b != byte(i) {
				t.Fatalf("region %d's bytes were overwritten", i)
			}
		}
	}
	more, _ := e.Alloc(64)
	small, _ := e.Alloc(0)
	if got := e.Stats().EPCPages; got != 3 {
		t.Fatalf("a 65th 64 B region and a 0 B one: %d pages, want 3", got)
	}
	for _, r := range first[1:] {
		e.Free(r)
	}
	if got := e.Stats().EPCPages; got != 3 {
		t.Errorf("a page with one live slot left the working set: %d pages, want 3", got)
	}
	e.Free(first[0])
	if got := e.Stats().EPCPages; got != 2 {
		t.Errorf("a page with no live slot stayed: %d pages, want 2", got)
	}
	e.mu.Lock()
	end := e.nextBase
	e.mu.Unlock()
	again, _ := e.Alloc(50)
	e.mu.Lock()
	reused := e.nextBase == end
	e.mu.Unlock()
	if !reused || e.Stats().EPCPages != 3 {
		t.Errorf("a freed slot was not taken again: address range grew %v, %d pages", !reused, e.Stats().EPCPages)
	}
	for _, r := range []*Region{more, small, again} {
		e.Free(r)
	}
	if st := e.Stats(); st.EPCPages != 0 || st.HeapBytes != 0 {
		t.Errorf("after freeing everything: %d pages, %d heap bytes", st.EPCPages, st.HeapBytes)
	}
	if n := testing.AllocsPerRun(100, func() {
		r, _ := e.Alloc(32)
		e.Free(r)
	}); n != 1 {
		t.Errorf("a small region takes %.0f allocations, want 1", n)
	}
}

// TestReserveAccountsLikeAlloc: a reserved region is an allocated one minus
// the bytes — same address range, heap figure, pages, faults and release.
func TestReserveAccountsLikeAlloc(t *testing.T) {
	run := func(get func(*Enclave, int) (*Region, error)) (Stats, Stats) {
		p := newTestPlatform(t, WithEPCBytes(8*PageSize))
		e := p.CreateEnclave([]byte("img"), 0)
		var regions []*Region
		for _, n := range []int{0, 1, PageSize, 3*PageSize + 7, 16 * PageSize} {
			r, err := get(e, n)
			if err != nil {
				t.Fatal(err)
			}
			if r.Size() != n {
				t.Errorf("Size() = %d, want %d", r.Size(), n)
			}
			regions = append(regions, r)
		}
		for round := 0; round < 3; round++ {
			for _, r := range regions {
				r.Touch(0, r.Size())
			}
		}
		live := e.Stats()
		for _, r := range regions {
			e.Free(r)
		}
		return live, e.Stats()
	}
	allocLive, allocFreed := run((*Enclave).Alloc)
	resLive, resFreed := run((*Enclave).Reserve)
	if allocLive != resLive || allocFreed != resFreed {
		t.Errorf("Reserve accounts differently:\nalloc   %+v -> %+v\nreserve %+v -> %+v", allocLive, allocFreed, resLive, resFreed)
	}
	if resLive.PageFaults == 0 {
		t.Error("a 22-page working set in an 8-page EPC charged no faults")
	}
	if resFreed.EPCPages != 0 || resFreed.HeapBytes != 0 {
		t.Errorf("after freeing everything: %+v", resFreed)
	}

	p := newTestPlatform(t)
	e := p.CreateEnclave([]byte("img"), 0)
	r, err := e.Reserve(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Data != nil {
		t.Errorf("reserved region carries %d backing bytes", len(r.Data))
	}
	if a, _ := e.Alloc(64); len(a.Data) != 64 {
		t.Errorf("allocated region carries %d backing bytes, want 64", len(a.Data))
	}
}

func TestTransitionAccounting(t *testing.T) {
	p := newTestPlatform(t)
	e := p.CreateEnclave([]byte("img"), 0)

	for i := 0; i < 3; i++ {
		if err := e.Ecall("poll", func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Ocall("grow_pool", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Ecalls != 3 || s.Ocalls != 1 {
		t.Errorf("ecalls=%d ocalls=%d, want 3/1", s.Ecalls, s.Ocalls)
	}
	if want := uint64(4 * TransitionCycles); s.Cycles != want {
		t.Errorf("cycles=%d, want %d", s.Cycles, want)
	}
	counts := e.CallCounts()
	if counts["ecall:poll"] != 3 || counts["ocall:grow_pool"] != 1 {
		t.Errorf("call counts = %v", counts)
	}
}

func TestEcallErrorPropagates(t *testing.T) {
	p := newTestPlatform(t)
	e := p.CreateEnclave([]byte("img"), 0)
	sentinel := errors.New("inner failure")
	if err := e.Ecall("x", func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("got %v, want sentinel", err)
	}
}

// TestEPCPagingCharged: once the working set exceeds the EPC, touches of
// non-resident pages incur fault charges — the mechanism behind the paging
// series in Figure 7.
func TestEPCPagingCharged(t *testing.T) {
	// Tiny EPC: 8 pages.
	p := newTestPlatform(t, WithEPCBytes(8*PageSize))
	e := p.CreateEnclave([]byte("img"), 0)

	r, err := e.Alloc(6 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if faults := e.Stats().PageFaults; faults != 0 {
		t.Fatalf("faults before exceeding EPC: %d", faults)
	}
	// Allocate beyond the EPC: allocation touches pages, forcing eviction.
	r2, err := e.Alloc(6 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	overflow := e.Stats().PageFaults
	if overflow == 0 {
		t.Fatal("no faults despite exceeding EPC")
	}
	// Re-touching the first (now evicted) region faults again.
	r.Touch(0, 6*PageSize)
	if got := e.Stats().PageFaults; got <= overflow {
		t.Errorf("re-touch did not fault: %d -> %d", overflow, got)
	}
	// Touching a resident page immediately again is free.
	before := e.Stats().PageFaults
	r2.Touch(5*PageSize, 10)
	r2.Touch(5*PageSize, 10)
	if got := e.Stats().PageFaults; got > before+1 {
		t.Errorf("hot page faulted repeatedly: %d -> %d", before, got)
	}
}

func TestNoPagingUnderEPC(t *testing.T) {
	p := newTestPlatform(t)
	e := p.CreateEnclave([]byte("img"), 0)
	r, err := e.Alloc(1 << 20) // 1 MiB, far below 93 MiB
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		r.Touch(0, 1<<20)
	}
	if faults := e.Stats().PageFaults; faults != 0 {
		t.Errorf("faults under EPC limit: %d", faults)
	}
}

func TestDestroyedEnclaveRejectsCalls(t *testing.T) {
	p := newTestPlatform(t)
	e := p.CreateEnclave([]byte("img"), 0)
	e.Destroy()
	if err := e.Ecall("x", func() error { return nil }); !errors.Is(err, ErrEnclaveStopped) {
		t.Errorf("ecall: got %v", err)
	}
	if err := e.Ocall("x", func() error { return nil }); !errors.Is(err, ErrEnclaveStopped) {
		t.Errorf("ocall: got %v", err)
	}
	if _, err := e.Alloc(16); !errors.Is(err, ErrEnclaveStopped) {
		t.Errorf("alloc: got %v", err)
	}
	if _, err := e.Quote(nil); !errors.Is(err, ErrEnclaveStopped) {
		t.Errorf("quote: got %v", err)
	}
}

func TestEnclaveConcurrentUse(t *testing.T) {
	p := newTestPlatform(t)
	e := p.CreateEnclave([]byte("img"), 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = e.Ecall("op", func() error { return nil })
				r, err := e.Alloc(64)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				r.Touch(0, 64)
				e.Free(r)
			}
		}()
	}
	wg.Wait()
	if got := e.Stats().Ecalls; got != 8*200 {
		t.Errorf("ecalls = %d, want %d", got, 8*200)
	}
}

func TestWorkingSetMiB(t *testing.T) {
	s := Stats{EPCPages: 17392}
	if got := s.WorkingSetMiB(); got < 67.8 || got > 68.0 {
		t.Errorf("17392 pages = %.2f MiB, want ≈67.9", got)
	}
}

func TestMonotonicCounter(t *testing.T) {
	c := NewMonotonicCounter()
	if v := c.Increment(); v != 1 {
		t.Errorf("first increment = %d", v)
	}
	if v := c.Increment(); v != 2 {
		t.Errorf("second increment = %d", v)
	}
	if err := c.VerifyAtLeast(2); err != nil {
		t.Errorf("current value rejected: %v", err)
	}
	if err := c.VerifyAtLeast(5); err != nil {
		t.Errorf("future value rejected: %v", err)
	}
	if err := c.VerifyAtLeast(1); !errors.Is(err, ErrCounterRollback) {
		t.Errorf("rollback not detected: %v", err)
	}
}
