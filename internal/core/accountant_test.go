package core

import (
	"bytes"
	"fmt"
	"testing"
)

// TestAccountantHoldsNoShadowBuffer: the enclave accountant models the
// hash table's EPC footprint without holding a byte of it. Up to the
// parent of the change that introduced Reserve, GrowTable allocated a real
// buffer of buckets x 92 B that nothing ever read — 5.75 MiB of zeros at
// this key count, 46 MiB at the benchmark's. The enclave figures below were
// measured at that parent commit with this same load, so the model is
// shown to be unmoved while the backing is shown to be gone.
func TestAccountantHoldsNoShadowBuffer(t *testing.T) {
	const (
		keys = 50_000
		// Measured at the parent commit: a 65 536-bucket table mirror
		// (6 029 312 B), the session region (600 B) and one poller's
		// staging page; 45 image pages + 1 472 + 1 + 1.
		parentHeapBytes = 6_034_008
		parentEPCPages  = 1_519
	)
	tc := newCluster(t, ServerConfig{Workers: 1})
	c := tc.connect()
	value := bytes.Repeat([]byte{7}, 32)
	frame := make([]BatchOp, 0, 50)
	for i := 0; i < keys; i += cap(frame) {
		frame = frame[:0]
		for j := i; j < i+cap(frame); j++ {
			frame = append(frame, BatchOp{Kind: BatchPut, Key: fmt.Sprintf("key-%06d", j), Value: value})
		}
		results, err := c.Batch(frame)
		if err != nil {
			t.Fatalf("batch at %d: %v", i, err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("put in batch at %d: %v", i, r.Err)
			}
		}
	}

	st := tc.server.Stats()
	if st.Entries != keys {
		t.Fatalf("entries = %d, want %d", st.Entries, keys)
	}
	if st.Enclave.HeapBytes != parentHeapBytes || st.Enclave.EPCPages != parentEPCPages {
		t.Errorf("enclave model moved: heap %d B, %d pages; parent commit had %d B, %d pages",
			st.Enclave.HeapBytes, st.Enclave.EPCPages, parentHeapBytes, parentEPCPages)
	}

	acct := tc.server.acct
	table := acct.table.Load()
	acct.mu.Lock()
	sessions := acct.sessions
	acct.mu.Unlock()
	if table == nil || sessions == nil {
		t.Fatal("accountant holds no table or session region")
	}
	if table.Size() < keys*DefaultEntryBytes {
		t.Errorf("table mirror accounts %d B, below %d keys x %d B", table.Size(), keys, DefaultEntryBytes)
	}
	if n := len(table.Data) + len(sessions.Data); n != 0 {
		t.Errorf("accountant regions are backed by %d bytes of Go heap, want 0", n)
	}
}
