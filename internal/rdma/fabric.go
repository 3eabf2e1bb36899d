package rdma

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Hook intercepts outbound WRITE/SEND payloads for fault injection in
// tests: it may rewrite the data and/or drop the operation.
type Hook func(op OpType, data []byte) (mutated []byte, drop bool)

// Fabric is the in-process RDMA network: a set of devices whose queue
// pairs exchange data by direct memory copy. It models a lossless
// converged-Ethernet fabric (RoCE) — reliable, ordered delivery — with an
// optional fault-injection hook.
type Fabric struct {
	mu      sync.RWMutex
	devices map[string]*Device
	// faults is read on every post, without mu.
	faults atomic.Pointer[Hook]
}

// NewFabric creates an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{devices: make(map[string]*Device)}
}

// NewDevice attaches a named device (one per simulated machine).
func (f *Fabric) NewDevice(name string) (*Device, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, exists := f.devices[name]; exists {
		return nil, fmt.Errorf("rdma: device %q already exists", name)
	}
	d := NewDevice(name)
	f.devices[name] = d
	return d, nil
}

// Device returns the named device.
func (f *Fabric) Device(name string) (*Device, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	d, ok := f.devices[name]
	if !ok {
		return nil, ErrNoSuchDevice
	}
	return d, nil
}

// ConnectRC establishes a reliable connection between two devices and
// returns the paired queue pairs (a's end first).
func (f *Fabric) ConnectRC(a, b *Device) (*QP, *QP) {
	qa := &QP{device: a, fabric: f}
	qb := &QP{device: b, fabric: f}
	qa.peer = qb
	qb.peer = qa
	return qa, qb
}

// SetFaultHook installs (or clears, with nil) the fault-injection hook.
func (f *Fabric) SetFaultHook(h Hook) {
	if h == nil {
		f.faults.Store(nil)
		return
	}
	f.faults.Store(&h)
}

func (f *Fabric) hook() Hook {
	if h := f.faults.Load(); h != nil {
		return *h
	}
	return nil
}
