package rdma

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// MemoryRegion is a registered buffer a NIC may access. Remote peers
// address it by rkey and byte offset; the owning host accesses it through
// ReadAt/WriteAt, which take the region's lock against concurrent NIC DMA.
// A host that polls the region for remote writes asks Doorbell first and
// takes the lock only when the word moved — the stand-in for
// cache-coherent DMA, where an idle poll is a plain load.
type MemoryRegion struct {
	mu sync.RWMutex
	// bell counts the remote writes and atomics applied to the region. It
	// is bumped after the bytes are in place and the lock released, so a
	// poller that sees it move finds the bytes and no writer in its way.
	bell atomic.Uint64
	// wake, once armed, takes a token after every bump of bell (Arm).
	wake atomic.Pointer[chan struct{}]
	buf  []byte
	lkey uint32
	rkey uint32
	perm Perm
	dead bool
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

// ReadAt copies min(len(dst), Len()-off) bytes from the region into dst,
// returning the count. Used by the owning host to poll rings.
func (m *MemoryRegion) ReadAt(off int, dst []byte) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.dead || off < 0 || off >= len(m.buf) {
		return 0
	}
	return copy(dst, m.buf[off:])
}

// WriteAt copies src into the region at off, returning the count. Used by
// the owning host (local writes need no permission bits).
func (m *MemoryRegion) WriteAt(off int, src []byte) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead || off < 0 || off >= len(m.buf) {
		return 0
	}
	return copy(m.buf[off:], src)
}

// ReadUint64 reads a little-endian uint64 at off (for polling counters).
func (m *MemoryRegion) ReadUint64(off int) uint64 {
	var b [8]byte
	if m.ReadAt(off, b[:]) != 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

// WriteUint64 writes a little-endian uint64 at off.
func (m *MemoryRegion) WriteUint64(off int, v uint64) {
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
	m.WriteAt(off, []byte{v})
}

// remoteWrite applies an incoming one-sided WRITE. It enforces rkey
// permission and bounds exactly; unlike local access, a violation is an
// error that will transition the initiating QP to the error state.
func (m *MemoryRegion) remoteWrite(off uint64, data []byte) error {
	err := m.applyWrite(off, data)
	if err == nil {
		m.ring()
	}
	return err
}

func (m *MemoryRegion) applyWrite(off uint64, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return ErrMRDeregistered
	}
	if m.perm&PermRemoteWrite == 0 {
		return ErrPermission
	}
	if off > uint64(len(m.buf)) || uint64(len(data)) > uint64(len(m.buf))-off {
		return ErrBounds
	}
	copy(m.buf[off:], data)
	return nil
}

// remoteRead applies an incoming one-sided READ.
func (m *MemoryRegion) remoteRead(off uint64, dst []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.dead {
		return ErrMRDeregistered
	}
	if m.perm&PermRemoteRead == 0 {
		return ErrPermission
	}
	if off > uint64(len(m.buf)) || uint64(len(dst)) > uint64(len(m.buf))-off {
		return ErrBounds
	}
	copy(dst, m.buf[off:])
	return nil
}

// remoteAtomic applies an 8-byte atomic; cas selects compare-and-swap
// (otherwise fetch-and-add). Returns the original value.
func (m *MemoryRegion) remoteAtomic(off uint64, cas bool, compare, swapOrAdd uint64) (uint64, error) {
	old, err := m.applyAtomic(off, cas, compare, swapOrAdd)
	if err == nil {
		m.ring()
	}
	return old, err
}

func (m *MemoryRegion) applyAtomic(off uint64, cas bool, compare, swapOrAdd uint64) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return 0, ErrMRDeregistered
	}
	if m.perm&PermRemoteAtomic == 0 {
		return 0, ErrPermission
	}
	if off%8 != 0 {
		return 0, ErrAtomicAlign
	}
	if off > uint64(len(m.buf)) || uint64(len(m.buf))-off < 8 {
		return 0, ErrBounds
	}
	old := binary.LittleEndian.Uint64(m.buf[off:])
	if cas {
		if old == compare {
			binary.LittleEndian.PutUint64(m.buf[off:], swapOrAdd)
		}
	} else {
		binary.LittleEndian.PutUint64(m.buf[off:], old+swapOrAdd)
	}
	return old, nil
}

func (m *MemoryRegion) deregister() {
	m.mu.Lock()
	m.dead = true
	m.buf = nil
	m.mu.Unlock()
}
