package core

import (
	"bytes"
	"fmt"
	"testing"

	"precursor/internal/sgx"
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

// TestInlineValuesSharePages: inline values are enclave regions of at most
// 55 bytes, and such regions share pages, 64 slots of 64 B or 128 of 32 B
// to a page. The same 20 000 puts and 20 000 overwrites of 32 B values
// therefore leave the working set of an inline server at most a 64 B slot
// a key, and a few partly filled pages, above that of a server without
// inline values. Before, every inline value took a page of its own: 20 000
// pages more, 78 MiB of modelled EPC for 640 KB of values.
func TestInlineValuesSharePages(t *testing.T) {
	const (
		keys  = 20_000
		frame = 50
		slack = 16 // pages: partly filled slot pages, and the free slots an overwrite leaves
	)
	pages := func(cfg ServerConfig) int {
		cfg.Workers = 1
		tc := newCluster(t, cfg)
		c := tc.connect()
		ops := make([]BatchOp, 0, frame)
		for _, value := range [][]byte{bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32)} {
			for i := 0; i < keys; i += frame {
				ops = ops[:0]
				for j := i; j < i+frame; j++ {
					ops = append(ops, BatchOp{Kind: BatchPut, Key: fmt.Sprintf("key-%06d", j), Value: value})
				}
				results, err := c.Batch(ops)
				if err != nil {
					t.Fatalf("batch at %d: %v", i, err)
				}
				for _, r := range results {
					if r.Err != nil {
						t.Fatalf("put in batch at %d: %v", i, r.Err)
					}
				}
			}
		}
		st := tc.server.Stats()
		if st.Entries != keys {
			t.Fatalf("entries = %d, want %d", st.Entries, keys)
		}
		return st.Enclave.EPCPages
	}
	base, inline := pages(ServerConfig{}), pages(ServerConfig{InlineSmallValues: true})
	budget := keys*64/sgx.PageSize + slack
	t.Logf("working set: %d pages without inline values, %d with (+%d, budget +%d)", base, inline, inline-base, budget)
	if inline-base > budget {
		t.Errorf("inline values add %d pages, budget %d", inline-base, budget)
	}
}
