package core

import (
	"sync"
	"sync/atomic"

	"precursor/internal/sgx"
)

// enclaveAccountant mirrors the hash table's memory behaviour onto the
// simulated enclave so the EPC working set (Table 1) and paging charges
// (Figure 7) come from real allocation and access patterns. The buckets
// and session keys themselves live on the Go heap; the regions here are
// reserved, not allocated, so the model costs pages of accounting and no
// bytes of memory.
type enclaveAccountant struct {
	enclave *sgx.Enclave
	table   atomic.Pointer[sgx.Region] // reserved extent of the current bucket array

	mu       sync.Mutex
	sessions *sgx.Region // per-client session state (grown in steps)
	nSess    int
}

// sessionStateBytes is the modelled enclave state per client: the 128-bit
// session key, GCM context, oid, and client id (§4 lists a 256-bit secret,
// 1 B oid and 4 B client id; the AEAD schedule dominates).
const sessionStateBytes = 200

func newEnclaveAccountant(e *sgx.Enclave) *enclaveAccountant {
	return &enclaveAccountant{enclave: e}
}

// GrowTable implements hashtable.Accountant: the bucket array moved from
// oldBytes to newBytes of enclave memory.
func (a *enclaveAccountant) GrowTable(oldBytes, newBytes int) {
	if old := a.table.Load(); old != nil {
		a.enclave.Free(old)
	}
	region, _ := a.enclave.Reserve(newBytes) // nil once the enclave is destroyed: nothing to account
	a.table.Store(region)
}

// TouchBucket implements hashtable.Accountant: bucket i of n was accessed.
func (a *enclaveAccountant) TouchBucket(i, n, entrySize int) {
	region := a.table.Load()
	if region == nil {
		return
	}
	off := i * entrySize
	if off+entrySize > region.Size() {
		return // table grew concurrently; next touch lands in new region
	}
	region.Touch(off, entrySize)
}

// chargeSession accounts one client's in-enclave session state.
func (a *enclaveAccountant) chargeSession() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nSess++
	need := a.nSess * sessionStateBytes
	if a.sessions != nil && need <= a.sessions.Size() {
		a.sessions.Touch(0, need)
		return
	}
	if a.sessions != nil {
		a.enclave.Free(a.sessions)
	}
	region, err := a.enclave.Reserve(need*2 + sessionStateBytes)
	if err != nil {
		a.sessions = nil
		return
	}
	a.sessions = region
}
