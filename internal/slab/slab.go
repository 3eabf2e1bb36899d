// Package slab implements the pre-allocated untrusted payload pool the
// Precursor server stores encrypted values in.
//
// The design mirrors §3.8: instead of performing an ocall per allocation,
// the enclave hands out slots from a pool in untrusted memory that was
// pre-allocated up front, and only when the pool runs dry does it issue a
// single (batched) ocall to enlarge it. The pool uses geometrically spaced
// size classes (eight per doubling, as jemalloc and TCMalloc space theirs)
// with per-class free lists, so slot reuse after deletes and updates is
// O(1) and a slot is at most one ninth padding.
//
// The grid is laid over the value, not the slot: every stored form carries
// the same framing beyond its value (a nonce and a MAC, say — WithFraming),
// and a slot is a grid size plus that framing, so a value of a grid size —
// a power of two among them — fills its slot exactly.
//
// A Ref — the pointer the enclave keeps per key — is a chunk, an offset and
// a size, 12 bytes: the size decides the class, so the Ref carries none.
package slab

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// Errors returned by the pool.
var (
	ErrTooLarge = errors.New("slab: allocation exceeds maximum slot size")
	ErrBadRef   = errors.New("slab: invalid reference")
)

const (
	// minClassShift is the smallest grid size (32 B of value): a 32 B
	// value fills the smallest slot, and every smaller value takes one.
	minClassShift = 5
	// maxClassShift is the largest grid size (1 MiB of value).
	maxClassShift = 20
	// stepShift: each doubling [2^k, 2^(k+1)) is cut into 1<<stepShift
	// equal steps of 2^(k-stepShift) bytes (4 B at the 32 B end), and a
	// value one byte past a grid size wastes under 1/(1<<stepShift + 1) =
	// 11.1 % of its slot, framing or not (four steps would bound it at 20 %,
	// sixteen need 2 B steps at 32 B).
	stepShift  = 3
	numClasses = (maxClassShift-minClassShift)<<stepShift + 1
)

// Ref locates an allocation: the pointer the enclave hash table stores
// alongside K_operation (the "ptr" of Fig. 3). It is 12 bytes and names no
// size class: its size decides the class (classFor), and a slot reused from
// a class's free list is handed only a size of that class.
type Ref struct {
	chunk uint32
	off   uint32
	size  uint32
}

// Valid reports whether the ref refers to an allocation (zero Ref is invalid).
func (r Ref) Valid() bool { return r.size > 0 }

// Size returns the logical (requested) size of the allocation.
func (r Ref) Size() int { return int(r.size) }

// Stats is a snapshot of pool usage.
type Stats struct {
	BytesReserved  int64  // total untrusted memory owned by the pool
	BytesInUse     int64  // bytes in live allocations (slot-rounded)
	BytesRequested int64  // sum of live Ref.Size(): BytesInUse minus class padding
	Allocs         uint64 // total successful allocations
	Frees          uint64
	Growths        uint64 // chunks reserved, one GrowFunc call (≈ ocall) each
}

// GrowFunc is invoked (outside the pool lock) whenever the pool must
// reserve more untrusted memory. The server wires it to a single enclave
// ocall; tests may fail it to exercise exhaustion.
type GrowFunc func(bytes int) error

// Pool is a thread-safe untrusted-memory payload pool.
type Pool struct {
	mu       sync.Mutex
	framing  int
	classes  [numClasses]classState
	grow     GrowFunc
	growStep int
	stats    Stats
}

type classState struct {
	chunks [][]byte // backing memory, whole slots; the newest is bump-allocated
	free   []Ref
	next   int // offset of the newest chunk's first never-used slot
}

// Option configures a Pool.
type Option func(*Pool)

// WithGrowFunc sets the callback invoked when the pool reserves memory.
func WithGrowFunc(f GrowFunc) Option {
	return func(p *Pool) { p.grow = f }
}

// WithGrowStep sets the minimum bytes reserved per growth (default 1 MiB).
func WithGrowStep(n int) Option {
	return func(p *Pool) {
		if n > 0 {
			p.growStep = n
		}
	}
}

// WithFraming sets the pool's framing: the bytes every stored form carries
// beyond its value (default 0). A slot is a grid size plus the framing, so
// an allocation of a grid size plus the framing has no padding.
func WithFraming(n int) Option {
	return func(p *Pool) {
		if n > 0 {
			p.framing = n
		}
	}
}

// New creates a pool and pre-allocates initialBytes across no size class
// in particular — memory is reserved lazily per class, but the initial
// reservation is counted so that growth (and hence ocalls) only begins
// after it is consumed.
func New(opts ...Option) *Pool {
	p := &Pool{growStep: 1 << 20}
	for _, o := range opts {
		o(p)
	}
	return p
}

// classFor returns the index of the smallest size class whose slot holds n
// bytes under the given framing: the class of the grid size at or above
// the value, n - framing.
func classFor(n, framing int) (int, error) {
	n -= framing
	if n <= 1<<minClassShift {
		return 0, nil
	}
	if n > 1<<maxClassShift {
		return 0, ErrTooLarge
	}
	// m = n-1 lies in the doubling [2^k, 2^(k+1)); its leading one and the
	// stepShift bits below it, m>>(k-stepShift) = 1<<stepShift + step, name
	// the step it falls in, and n needs the class that ends that step.
	// (Shift counts are masked so the compiler emits a bare shift.)
	m := uint(n - 1)
	k := uint(bits.Len(m)) - 1
	return int((k-minClassShift)<<stepShift + m>>((k-stepShift)&63) - (1<<stepShift - 1)), nil
}

// classSize returns the slot size of a class under the given framing: its
// grid size, (1<<stepShift + step) steps of 2^(k-stepShift) bytes in the
// doubling that starts at 2^k, plus the framing.
func classSize(class, framing int) int {
	c := uint(class)
	return int((1<<stepShift+c&(1<<stepShift-1))<<((c>>stepShift+minClassShift-stepShift)&63)) + framing
}

// Alloc reserves a slot of at least n bytes and returns its reference.
// Zero-byte requests allocate the minimum slot (a Ref must always be
// Valid and readable).
func (p *Pool) Alloc(n int) (Ref, error) {
	if n <= 0 {
		n = 1
	}
	class, err := classFor(n, p.framing)
	if err != nil {
		return Ref{}, err
	}
	slot := classSize(class, p.framing)
	p.mu.Lock()
	cs := &p.classes[class]
	var ref Ref
	grown := 0 // bytes of the chunk this call's GrowFunc reserved
	for {
		// Reuse a freed slot first, then bump-allocate in the newest chunk.
		if len(cs.free) > 0 {
			ref = cs.free[len(cs.free)-1]
			cs.free = cs.free[:len(cs.free)-1]
			break
		}
		if last := len(cs.chunks) - 1; last >= 0 && cs.next+slot <= len(cs.chunks[last]) {
			ref = Ref{chunk: uint32(last), off: uint32(cs.next)}
			cs.next += slot
			break
		}
		if grown > 0 {
			// Only after looking again: another allocator of this class may
			// have grown it while the lock was out, and a second chunk would
			// move the bump cursor off that one and strand the rest of it.
			cs.chunks = append(cs.chunks, make([]byte, grown))
			cs.next = 0
			p.stats.Growths++
			p.stats.BytesReserved += int64(grown)
			continue
		}
		// Need more memory: grow outside the lock via the (ocall) callback.
		grown = max(p.growStep, slot)
		grown -= grown % slot
		if p.grow != nil {
			p.mu.Unlock()
			err := p.grow(grown)
			p.mu.Lock()
			if err != nil {
				p.mu.Unlock()
				return Ref{}, fmt.Errorf("slab grow: %w", err)
			}
		}
	}
	ref.size = uint32(n)
	p.stats.Allocs++
	p.stats.BytesInUse += int64(slot)
	p.stats.BytesRequested += int64(n)
	p.mu.Unlock()
	return ref, nil
}

// Free returns a slot to its class free list. Double frees are the
// caller's responsibility (the enclave owns all refs).
func (p *Pool) Free(ref Ref) {
	class, err := classFor(int(ref.size), p.framing)
	if !ref.Valid() || err != nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cs := &p.classes[class]
	cs.free = append(cs.free, Ref{chunk: ref.chunk, off: ref.off})
	p.stats.Frees++
	p.stats.BytesInUse -= int64(classSize(class, p.framing))
	p.stats.BytesRequested -= int64(ref.size)
}

// Write stores data into the slot. len(data) must not exceed the slot.
func (p *Pool) Write(ref Ref, data []byte) error {
	buf, err := p.slot(ref)
	if err != nil {
		return err
	}
	if len(data) > len(buf) {
		return ErrTooLarge
	}
	copy(buf, data)
	return nil
}

// Read returns the ref.Size() bytes stored in the slot. The returned slice
// aliases pool memory — untrusted memory an adversary may mutate, which is
// exactly the property integrity tests exercise.
func (p *Pool) Read(ref Ref) ([]byte, error) {
	buf, err := p.slot(ref)
	if err != nil {
		return nil, err
	}
	return buf[:ref.size], nil
}

func (p *Pool) slot(ref Ref) ([]byte, error) {
	class, err := classFor(int(ref.size), p.framing)
	if !ref.Valid() || err != nil {
		return nil, ErrBadRef
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cs := &p.classes[class]
	if int(ref.chunk) >= len(cs.chunks) {
		return nil, ErrBadRef
	}
	chunk := cs.chunks[ref.chunk]
	slot := classSize(class, p.framing)
	if int(ref.off)+slot > len(chunk) {
		return nil, ErrBadRef
	}
	return chunk[ref.off : int(ref.off)+slot], nil
}

// Stats returns a snapshot of pool usage.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
