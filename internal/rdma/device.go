package rdma

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"maps"
	"sync"
	"sync/atomic"
)

// ErrNoSuchDevice is returned when dialing an unknown device name.
var ErrNoSuchDevice = errors.New("rdma: no such device")

// Device models one RDMA NIC ("host channel adapter") attached to a host.
// It owns the host's registered memory regions; queue pairs created from it
// perform remote operations against peers' devices.
type Device struct {
	name string

	// mrs is the rkey table, copied on write: a one-sided op looks its
	// rkey up with one atomic load, and mu serializes the writers.
	mrs        atomic.Pointer[map[uint32]*MemoryRegion]
	mu         sync.Mutex
	nextKey    uint32
	randomKeys bool

	tcp fabricCounters // summed over the device's TCP queue pairs
}

// FabricStats returns the TCP fabric counters summed over every queue pair
// created on this device (zero for a device on the in-process fabric only).
func (d *Device) FabricStats() FabricStats { return d.tcp.stats() }

// NewDevice creates a stand-alone device. Devices participating in an
// in-process Fabric are created with Fabric.NewDevice instead.
func NewDevice(name string) *Device {
	d := &Device{
		name: name,
		// The paper (§3.9, citing ReDMArk) observes that rkeys are
		// predictable in practice; the sequential assignment reproduces
		// that weakness deliberately, and tests exploit it.
		nextKey: 1,
	}
	d.mrs.Store(&map[uint32]*MemoryRegion{})
	return d
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// RandomizeRKeys switches subsequent registrations to cryptographically
// random rkeys — the ReDMArk-style mitigation the paper's security
// discussion points to (§3.9): with unpredictable keys, an adversary can
// no longer enumerate memory windows by guessing.
func (d *Device) RandomizeRKeys() {
	d.mu.Lock()
	d.randomKeys = true
	d.mu.Unlock()
}

// RegisterMemory registers a fresh buffer of n bytes with the given
// permissions and returns the region.
func (d *Device) RegisterMemory(n int, perm Perm) *MemoryRegion {
	d.mu.Lock()
	defer d.mu.Unlock()
	mrs := *d.mrs.Load()
	key := d.nextKey
	d.nextKey++
	if d.randomKeys {
		var b [4]byte
		for {
			if _, err := rand.Read(b[:]); err != nil {
				break // fall back to the sequential key
			}
			candidate := binary.LittleEndian.Uint32(b[:])
			if _, taken := mrs[candidate]; !taken && candidate != 0 {
				key = candidate
				break
			}
		}
	}
	mr := newRegion(n, perm, key)
	next := maps.Clone(mrs)
	next[key] = mr
	d.mrs.Store(&next)
	return mr
}

// Deregister removes the region; in-flight remote operations against it
// fail with ErrMRDeregistered.
func (d *Device) Deregister(mr *MemoryRegion) {
	d.mu.Lock()
	next := maps.Clone(*d.mrs.Load())
	delete(next, mr.rkey)
	d.mrs.Store(&next)
	d.mu.Unlock()
	mr.deregister()
}

// lookupMR resolves an rkey for an incoming one-sided operation.
func (d *Device) lookupMR(rkey uint32) (*MemoryRegion, error) {
	mr, ok := (*d.mrs.Load())[rkey]
	if !ok {
		return nil, ErrBadRKey
	}
	return mr, nil
}
