package sgx

import (
	"sync"
)

// Enclave is one simulated SGX enclave: an isolated heap whose pages are
// tracked against the EPC, plus transition gates and cycle accounting.
//
// All methods are safe for concurrent use; the store's trusted threads
// enter through Ecall from multiple goroutines.
type Enclave struct {
	platform    *Platform
	measurement Measurement
	imagePages  int

	mu        sync.Mutex
	destroyed bool
	nextBase  int64
	heapBytes int64

	// pages is every live heap page touched: the enclave working set that
	// sgx-perf reports and Table 1 counts (plus imagePages). Freeing a
	// region retires its pages — sgx-perf traces pages in active use, not
	// lifetime-cumulative allocations.
	pages pageSet

	// resident tracks which pages currently fit in the EPC; once the
	// working set exceeds maxResident, touches of non-resident pages are
	// charged as EPC faults.
	resident     pageSet
	residentFIFO []int64
	maxResident  int64

	// Regions of at most smallMax bytes share pages: a page is carved into
	// slots of one size class, freeSlots holds each class's free slots, and
	// liveSlots counts each carved page's live ones. A carved page is in the
	// working set while it holds a live slot.
	freeSlots [smallClasses][]int64
	liveSlots map[int64]int32

	ecalls     uint64
	ocalls     uint64
	pageFaults uint64
	cycles     uint64

	callCounts map[string]uint64
}

// pageSet is a set of page numbers, one bit a page, with its size. The
// enclave reuses no address range but a carved page's slots (nextBase only
// grows), so the pages in use are a dense prefix of the numbers with holes
// where regions were freed.
type pageSet struct {
	bits []uint64
	n    int
}

func (s *pageSet) has(p int64) bool {
	i := p >> 6
	return i < int64(len(s.bits)) && s.bits[i]&(1<<(p&63)) != 0
}

func (s *pageSet) add(p int64) {
	i := int(p >> 6)
	if i >= len(s.bits) {
		s.bits = append(s.bits, make([]uint64, i+1-len(s.bits))...)
	}
	if bit := uint64(1) << (p & 63); s.bits[i]&bit == 0 {
		s.bits[i] |= bit
		s.n++
	}
}

func (s *pageSet) remove(p int64) {
	if s.has(p) {
		s.bits[p>>6] &^= 1 << (p & 63)
		s.n--
	}
}

// Region is a block of enclave memory returned by Alloc or Reserve. Data is
// ordinary process memory, but because the only reference lives inside
// enclave-owned structures reached through ecalls, package boundaries
// enforce the isolation the hardware would.
//
// What the enclave accounts — address range, heap bytes, pages — follows the
// region's size, not len(Data): a Reserve'd region has a size and no Data.
type Region struct {
	Data []byte // nil for a region made by Reserve

	enclave *Enclave
	base    int64
	size    int64
}

// Size returns the bytes the enclave accounts for the region. It is fixed
// at creation, so it may be read without holding any lock.
func (r *Region) Size() int { return int(r.size) }

// lastPage is the page holding the final byte of the n-byte extent at base;
// an empty extent still occupies the page it starts on.
func lastPage(base, n int64) int64 {
	if n <= 0 {
		n = 1
	}
	return (base + n - 1) / PageSize
}

// Measurement returns the enclave's MRENCLAVE-equivalent identity.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// Small regions, of at most smallMax bytes, take a slot of a shared page:
// the smallest of smallClasses size classes, from smallMin bytes doubling,
// that holds them. Larger regions start on a page of their own.
const (
	smallMin     = 16
	smallMax     = 64
	smallClasses = 3
)

// smallRegion is a small allocated region and its bytes in one object.
type smallRegion struct {
	Region
	buf [smallMax]byte
}

// Alloc allocates n bytes on the enclave heap and records the pages in the
// working set. It returns ErrEPCExhausted only if the platform was
// configured with a hard heap cap smaller than the request; by default the
// heap may exceed the EPC — exactly like real SGX — at the price of paging
// charges on access.
func (e *Enclave) Alloc(n int) (*Region, error) {
	n = max(n, 0)
	if n <= smallMax {
		s := new(smallRegion)
		if err := e.place(&s.Region, n); err != nil {
			return nil, err
		}
		s.Data = s.buf[:n:n]
		return &s.Region, nil
	}
	r := new(Region)
	if err := e.place(r, n); err != nil {
		return nil, err
	}
	r.Data = make([]byte, n)
	return r, nil
}

// Reserve is Alloc without the backing bytes: it takes n bytes of enclave
// address range, counts them on the heap and in the working set, and
// charges faults on Touch exactly as Alloc does, for state whose footprint
// the model needs but whose contents live elsewhere in the process.
func (e *Enclave) Reserve(n int) (*Region, error) {
	r := new(Region)
	if err := e.place(r, max(n, 0)); err != nil {
		return nil, err
	}
	return r, nil
}

// place makes r a region of n ≥ 0 bytes of enclave address range, counted
// on the heap and in the working set.
func (e *Enclave) place(r *Region, n int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.destroyed {
		return ErrEnclaveStopped
	}
	base := e.nextBase
	if n <= smallMax {
		base = e.takeSlotLocked(n)
	} else {
		// Keep larger allocations page-aligned so working-set accounting
		// is exact.
		e.nextBase += (int64(n) + PageSize - 1) / PageSize * PageSize
	}
	e.heapBytes += int64(n)
	e.touchLocked(base, int64(n))
	r.enclave, r.base, r.size = e, base, int64(n)
	return nil
}

// slotClass is the size class of a small region of n bytes, and its slot
// size.
func slotClass(n int64) (class int, size int64) {
	for size = smallMin; size < n; size <<= 1 {
		class++
	}
	return class, size
}

// takeSlotLocked returns a free slot for a small region of n bytes,
// carving a fresh page into slots of n's class when the class has none.
func (e *Enclave) takeSlotLocked(n int) int64 {
	class, size := slotClass(int64(n))
	free := e.freeSlots[class]
	if len(free) == 0 {
		page := e.nextBase
		e.nextBase += PageSize
		// Carved last slot first, so the first taken is the page's first.
		for off := PageSize - size; off >= 0; off -= size {
			free = append(free, page+off)
		}
	}
	slot := free[len(free)-1]
	e.freeSlots[class] = free[:len(free)-1]
	if e.liveSlots == nil {
		e.liveSlots = make(map[int64]int32)
	}
	e.liveSlots[slot/PageSize]++
	return slot
}

// Free returns a region's pages to the allocator's accounting, retiring
// them from both the working set and residency: the enclave's working set
// reflects pages in active use, as sgx-perf measures it (so e.g. a grown
// hash table's footprint is its current size, not the sum of all
// generations).
func (e *Enclave) Free(r *Region) {
	if r == nil || r.enclave != e {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.heapBytes -= r.size
	if e.heapBytes < 0 {
		e.heapBytes = 0
	}
	first, last := r.base/PageSize, lastPage(r.base, r.size)
	if r.size <= smallMax {
		class, _ := slotClass(r.size)
		e.freeSlots[class] = append(e.freeSlots[class], r.base)
		if e.liveSlots[first]--; e.liveSlots[first] > 0 {
			last = first - 1 // the page holds another live slot: it stays
		}
	}
	for p := first; p <= last; p++ {
		e.resident.remove(p)
		e.pages.remove(p)
	}
	r.Data = nil
}

// Touch records an access to bytes [off, off+n) of r for paging purposes. The
// store calls this on every in-enclave read or write so that exceeding the
// EPC produces the fault charges Figure 7's paging experiment shows.
func (r *Region) Touch(off, n int) {
	if r == nil || n <= 0 {
		return
	}
	r.enclave.mu.Lock()
	r.enclave.touchLocked(r.base+int64(off), int64(n))
	r.enclave.mu.Unlock()
}

func (e *Enclave) touchLocked(base, n int64) {
	for p := base / PageSize; p <= lastPage(base, n); p++ {
		e.pages.add(p)
		if e.resident.has(p) {
			continue
		}
		// Page not resident: count a fault only once the EPC is full,
		// i.e. when residency requires evicting another page.
		if int64(e.resident.n) >= e.maxResident-int64(e.imagePages) {
			// Evict the oldest resident page (FIFO approximation of the
			// kernel's paging) and charge the round trip.
			for len(e.residentFIFO) > 0 {
				victim := e.residentFIFO[0]
				e.residentFIFO = e.residentFIFO[1:]
				if e.resident.has(victim) {
					e.resident.remove(victim)
					break
				}
			}
			e.pageFaults++
			e.cycles += e.platform.faultCycles
		}
		e.resident.add(p)
		e.residentFIFO = append(e.residentFIFO, p)
	}
}

// Ecall enters the enclave, charging one transition, and runs fn. The name
// is recorded for sgx-perf-style per-call statistics.
func (e *Enclave) Ecall(name string, fn func() error) error {
	e.mu.Lock()
	if e.destroyed {
		e.mu.Unlock()
		return ErrEnclaveStopped
	}
	e.ecalls++
	e.cycles += e.platform.transitionCycles
	e.countLocked("ecall:" + name)
	e.mu.Unlock()
	return fn()
}

// Ocall leaves the enclave, charging one transition, and runs fn in the
// untrusted environment.
func (e *Enclave) Ocall(name string, fn func() error) error {
	e.mu.Lock()
	if e.destroyed {
		e.mu.Unlock()
		return ErrEnclaveStopped
	}
	e.ocalls++
	e.cycles += e.platform.transitionCycles
	e.countLocked("ocall:" + name)
	e.mu.Unlock()
	return fn()
}

func (e *Enclave) countLocked(name string) {
	if e.callCounts == nil {
		e.callCounts = make(map[string]uint64)
	}
	e.callCounts[name]++
}

// ChargeCycles adds modelled in-enclave work (e.g. crypto) to the cycle
// counter without a transition.
func (e *Enclave) ChargeCycles(c uint64) {
	e.mu.Lock()
	e.cycles += c
	e.mu.Unlock()
}

// Stats returns a snapshot of accounted activity.
func (e *Enclave) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Ecalls:     e.ecalls,
		Ocalls:     e.ocalls,
		PageFaults: e.pageFaults,
		Cycles:     e.cycles,
		HeapBytes:  e.heapBytes,
		EPCPages:   e.imagePages + e.pages.n,
	}
}

// CallCounts returns a copy of the per-call transition counters.
func (e *Enclave) CallCounts() map[string]uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]uint64, len(e.callCounts))
	for k, v := range e.callCounts {
		out[k] = v
	}
	return out
}

// Destroy tears the enclave down; further calls fail with
// ErrEnclaveStopped. The hosting OS can do this at any time (the paper's
// availability assumption), so the store must tolerate it.
func (e *Enclave) Destroy() {
	e.mu.Lock()
	e.destroyed = true
	e.mu.Unlock()
}
