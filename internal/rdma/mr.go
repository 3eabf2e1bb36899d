package rdma

import (
	"encoding/binary"
	"sync/atomic"
	"unsafe"
)

// MemoryRegion is a registered buffer a NIC may access. Remote peers
// address it by rkey and byte offset; the owning host accesses it through
// ReadAt/WriteAt and friends. Neither side takes a lock: the bytes are
// device memory, reached the way cache-coherent DMA reaches it.
//
//   - A remote write copies its bytes in, its first byte last, then bumps
//     the doorbell word. The bump is the release.
//   - A host read loads the doorbell word, then copies the bytes out. The
//     load is the acquire.
//   - An aligned 8-byte word — a credit counter, the target of a remote
//     atomic, ReadUint64/WriteUint64 — is a sync/atomic load, store or CAS.
//
// Every byte copy goes through dma, the one routine the race detector does
// not see: a peer may rewrite the bytes while the host copies them, and the
// host copies a frame out before it verifies it, so a torn copy fails
// framing or authentication, never the process.
type MemoryRegion struct {
	// bell counts the remote writes and atomics applied to the region. It
	// is bumped after the bytes are in place, so a poller that sees it move
	// finds them there.
	bell atomic.Uint64
	// wake, once armed, takes a token after every bump of bell (Arm).
	wake atomic.Pointer[chan struct{}]
	// dead is set by Deregister; the bytes are kept, so an access racing
	// the deregistration copies into or out of memory that is still there.
	dead atomic.Bool
	buf  []byte // 8-byte aligned (newRegion)
	lkey uint32
	rkey uint32
	perm Perm
}

// newRegion makes a region of n zero bytes whose first byte is 8-byte
// aligned, so that offset alignment is address alignment for the atomic
// words.
func newRegion(n int, perm Perm, key uint32) *MemoryRegion {
	words := make([]uint64, (n+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)
	return &MemoryRegion{buf: buf, perm: perm, lkey: key, rkey: key}
}

// memmove is the runtime's copy routine, uninstrumented assembly.
//
//go:linkname memmove runtime.memmove
//go:noescape
func memmove(to, from unsafe.Pointer, n uintptr)

// dma copies min(len(dst), len(src)) bytes from src to dst and returns the
// count. It is the registered-memory data path's only copy, and the only
// code the race detector is told to skip: one side of every copy is device
// memory, which the threat model lets a peer (or a fault injector) rewrite
// at any moment, so a copy racing a write is the model, not a bug. What the
// protocol relies on is ordered by the doorbell word and the atomic words,
// which the detector does see.
//
//go:norace
func dma(dst, src []byte) int {
	n := min(len(dst), len(src))
	if n > 0 {
		memmove(unsafe.Pointer(unsafe.SliceData(dst)), unsafe.Pointer(unsafe.SliceData(src)), uintptr(n))
	}
	return n
}

// LKey returns the local key for this region.
func (m *MemoryRegion) LKey() uint32 { return m.lkey }

// RKey returns the remote key peers use in one-sided operations. The paper
// notes rkeys are the only capability protecting untrusted memory; tests
// exercise guessing attacks against it.
func (m *MemoryRegion) RKey() uint32 { return m.rkey }

// Len returns the region size in bytes.
func (m *MemoryRegion) Len() int { return len(m.buf) }

// Perm returns the registered permissions.
func (m *MemoryRegion) Perm() Perm { return m.perm }

// Doorbell returns the count of remote writes and atomics applied so far.
// A poller that loads it before looking at the bytes, and found nothing,
// may skip the look for as long as the word stays put: a write it missed
// bumps the word after its bytes landed, hence after that load.
func (m *MemoryRegion) Doorbell() uint64 { return m.bell.Load() }

// Arm makes the region leave a token in wake, a channel with a buffer of
// one, each time a remote write or atomic bumps its doorbell — after the
// bump. A poller that loaded the doorbell before it looked, found nothing
// and then parks on wake cannot sleep through a write: that write's token
// is there, or an older one still is. Only regions whose remote writes an
// agent goroutine applies (the TCP fabric) are worth arming; in process the
// writer is the peer's own thread and an idle poll costs one load.
func (m *MemoryRegion) Arm(wake chan struct{}) { m.wake.Store(&wake) }

// Armed reports whether the region leaves wake tokens.
func (m *MemoryRegion) Armed() bool { return m.wake.Load() != nil }

// ring bumps the doorbell, then leaves a token if the region is armed.
func (m *MemoryRegion) ring() {
	m.bell.Add(1)
	if w := m.wake.Load(); w != nil {
		select {
		case *w <- struct{}{}:
		default:
		}
	}
}

// span returns the region's bytes from off on, or nil when the region is
// deregistered or off is out of range.
func (m *MemoryRegion) span(off int) []byte {
	if m.dead.Load() || off < 0 || off >= len(m.buf) {
		return nil
	}
	return m.buf[off:]
}

// word returns the aligned 8-byte word at off, or nil when off is not
// 8-byte aligned or the word does not fit.
func (m *MemoryRegion) word(off uint64) *uint64 {
	if off%8 != 0 || off > uint64(len(m.buf)) || uint64(len(m.buf))-off < 8 {
		return nil
	}
	return (*uint64)(unsafe.Pointer(&m.buf[off]))
}

// le and raw convert between a word's value and its little-endian byte
// image in memory; on a little-endian host both are the identity.
func le(r uint64) uint64 { return binary.LittleEndian.Uint64((*[8]byte)(unsafe.Pointer(&r))[:]) }

func raw(v uint64) (r uint64) {
	binary.LittleEndian.PutUint64((*[8]byte)(unsafe.Pointer(&r))[:], v)
	return r
}

// ReadAt copies min(len(dst), Len()-off) bytes from the region into dst,
// returning the count. Used by the owning host to poll rings.
func (m *MemoryRegion) ReadAt(off int, dst []byte) int {
	m.bell.Load()
	return dma(dst, m.span(off))
}

// WriteAt copies src into the region at off, returning the count. Used by
// the owning host (local writes need no permission bits).
func (m *MemoryRegion) WriteAt(off int, src []byte) int {
	return dma(m.span(off), src)
}

// ReadUint64 reads a little-endian uint64 at off (for polling counters):
// an atomic load when off is 8-byte aligned.
func (m *MemoryRegion) ReadUint64(off int) uint64 {
	if w := m.word(uint64(off)); w != nil {
		if m.dead.Load() {
			return 0
		}
		return le(atomic.LoadUint64(w))
	}
	var b [8]byte
	if m.ReadAt(off, b[:]) != 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

// WriteUint64 writes a little-endian uint64 at off: an atomic store when
// off is 8-byte aligned.
func (m *MemoryRegion) WriteUint64(off int, v uint64) {
	if w := m.word(uint64(off)); w != nil {
		if !m.dead.Load() {
			atomic.StoreUint64(w, raw(v))
		}
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.WriteAt(off, b[:])
}

// ByteAt returns the byte at off (0 if out of range).
func (m *MemoryRegion) ByteAt(off int) byte {
	var b [1]byte
	m.ReadAt(off, b[:])
	return b[0]
}

// SetByte stores a byte at off.
func (m *MemoryRegion) SetByte(off int, v byte) {
	b := [1]byte{v}
	m.WriteAt(off, b[:])
}

// check admits a remote access of n bytes at off that needs perm.
func (m *MemoryRegion) check(perm Perm, off uint64, n int) error {
	if m.dead.Load() {
		return ErrMRDeregistered
	}
	if m.perm&perm == 0 {
		return ErrPermission
	}
	if off > uint64(len(m.buf)) || uint64(n) > uint64(len(m.buf))-off {
		return ErrBounds
	}
	return nil
}

// remoteWrite applies an incoming one-sided WRITE. It enforces rkey
// permission and bounds exactly; unlike local access, a violation is an
// error that will transition the initiating QP to the error state.
//
// An aligned 8-byte write lands whole, as one atomic store. Any other write
// lands its first byte last: a poller that sees a frame's start sign has
// the rest of the frame, the order a NIC that writes in address order
// gives a poller of the last byte.
func (m *MemoryRegion) remoteWrite(off uint64, data []byte) error {
	if err := m.check(PermRemoteWrite, off, len(data)); err != nil {
		return err
	}
	if w := m.word(off); w != nil && len(data) == 8 {
		atomic.StoreUint64(w, raw(binary.LittleEndian.Uint64(data)))
	} else if len(data) > 0 {
		dma(m.buf[off+1:], data[1:])
		dma(m.buf[off:], data[:1])
	}
	m.ring()
	return nil
}

// remoteRead applies an incoming one-sided READ.
func (m *MemoryRegion) remoteRead(off uint64, dst []byte) error {
	if err := m.check(PermRemoteRead, off, len(dst)); err != nil {
		return err
	}
	m.bell.Load()
	dma(dst, m.buf[off:])
	return nil
}

// remoteAtomic applies an 8-byte atomic; cas selects compare-and-swap
// (otherwise fetch-and-add). Returns the original value.
func (m *MemoryRegion) remoteAtomic(off uint64, cas bool, compare, swapOrAdd uint64) (uint64, error) {
	if err := m.check(PermRemoteAtomic, 0, 0); err != nil {
		return 0, err
	}
	if off%8 != 0 {
		return 0, ErrAtomicAlign
	}
	w := m.word(off)
	if w == nil {
		return 0, ErrBounds
	}
	for {
		old := atomic.LoadUint64(w)
		next := raw(le(old) + swapOrAdd)
		if cas {
			if le(old) != compare {
				m.ring()
				return le(old), nil
			}
			next = raw(swapOrAdd)
		}
		if atomic.CompareAndSwapUint64(w, old, next) {
			m.ring()
			return le(old), nil
		}
	}
}

func (m *MemoryRegion) deregister() { m.dead.Store(true) }
