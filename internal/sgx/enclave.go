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

	ecalls     uint64
	ocalls     uint64
	pageFaults uint64
	cycles     uint64

	callCounts map[string]uint64
}

// pageSet is a set of page numbers, one bit a page, with its size. The
// enclave never reuses address range (nextBase only grows), so the pages
// in use are a dense prefix of the numbers with holes where regions were
// freed.
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

// Alloc allocates n bytes on the enclave heap and records the pages in the
// working set. It returns ErrEPCExhausted only if the platform was
// configured with a hard heap cap smaller than the request; by default the
// heap may exceed the EPC — exactly like real SGX — at the price of paging
// charges on access.
func (e *Enclave) Alloc(n int) (*Region, error) {
	r, err := e.Reserve(n)
	if err != nil {
		return nil, err
	}
	r.Data = make([]byte, r.size)
	return r, nil
}

// Reserve is Alloc without the backing bytes: it takes n bytes of enclave
// address range, counts them on the heap and in the working set, and
// charges faults on Touch exactly as Alloc does, for state whose footprint
// the model needs but whose contents live elsewhere in the process.
func (e *Enclave) Reserve(n int) (*Region, error) {
	if n < 0 {
		n = 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.destroyed {
		return nil, ErrEnclaveStopped
	}
	base := e.nextBase
	// Keep allocations page-aligned so working-set accounting is exact.
	span := int64(n)
	if rem := span % PageSize; rem != 0 {
		span += PageSize - rem
	}
	if span == 0 {
		span = PageSize
	}
	e.nextBase += span
	e.heapBytes += int64(n)
	e.touchLocked(base, int64(n))
	return &Region{enclave: e, base: base, size: int64(n)}, nil
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
	for p := r.base / PageSize; p <= lastPage(r.base, r.size); p++ {
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
