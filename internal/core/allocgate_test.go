package core

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestOpPathAllocBudget is the allocation regression gate on the
// single-op path (PRECURSOR_ALLOC_GATE pattern): a real in-process
// client against a Workers: 1 server, steady state after warm-up, and
// the whole process's malloc count per operation — so the trusted
// poller, the sender and the fabric's amortised completion-queue drain
// are all inside the figure.
//
// What is left per op once the path is warm:
//
//	get     the value handed to the caller, nothing more: the one-time
//	        payload MAC key is expanded into the connection's
//	        PayloadCipher in place (no AES key schedule is allocated)
//	put     nothing (inline: the enclave region, one object with its
//	        bytes). The entry is a record the table holds by value, in
//	        every mode. vlog: nothing more —
//	        metadata, AD, seal and record are built in owned scratch, the
//	        group-commit channel is recycled; server-enc: the value is
//	        sealed under K_session both ways. The key is a view of the
//	        opened control: an overwrite allocates no key string
//	delete  nothing but the key's re-put that precedes every delete here,
//	        which inserts the key anew: an append to the table's key arena,
//	        a chunk per thousands of keys (the delta set shares that copy)
//	batch   per frame of batchFrame ops: the results slice, and for gets
//	        one block holding every value of the frame, each value a window
//	        of it with its capacity clipped; a put frame adds to the results
//	        slice what its puts cost one by one (inline: 1 each)
//
// and nothing amortised: the fabric drains send completions into a buffer
// the queue pair keeps. Budgets are the measured figures (beside each row)
// plus 0.4–0.8 of headroom.
func TestOpPathAllocBudget(t *testing.T) {
	if os.Getenv("PRECURSOR_ALLOC_GATE") == "" {
		t.Skip("set PRECURSOR_ALLOC_GATE=1 to enforce the op-path allocation budget")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	modes := []struct {
		name               string
		srv                ServerConfig
		vlog               bool
		get, put, putDel   float64 // budgets: allocs per get, per overwrite-put, per put+delete pair
		getFrame, putFrame float64 // budgets: allocs per frame of batchFrame gets, of batchFrame overwrite-puts
	}{
		{name: "base", get: 1.4, put: 0.4, putDel: 0.8, getFrame: 2.4, putFrame: 1.4},                                                  // 1.00, 0.00, 0.00, 2.00, 1.00
		{name: "hardened", srv: ServerConfig{HardenedMACs: true}, get: 1.4, put: 0.4, putDel: 0.8, getFrame: 2.4, putFrame: 1.4},       // 1.00, 0.00, 0.00, 2.00, 1.00
		{name: "inline", srv: ServerConfig{InlineSmallValues: true}, get: 1.4, put: 1.4, putDel: 1.8, getFrame: 2.4, putFrame: 33.4},   // 1.00, 1.00, 1.00, 2.00, 33.00
		{name: "vlog", vlog: true, get: 1.4, put: 0.4, putDel: 0.8, getFrame: 2.4, putFrame: 1.4},                                      // 1.00, 0.00, 0.00, 2.00, 1.00
		{name: "server-enc", srv: ServerConfig{ServerEncryption: true}, get: 1.4, put: 0.4, putDel: 0.8, getFrame: 2.4, putFrame: 1.4}, // 1.00, 0.00, 0.00, 2.00, 1.00
	}
	const (
		keys       = 64
		warm       = 2000
		rounds     = 20000
		batchFrame = 32
	)
	value := make([]byte, 32)
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			cfg := m.srv
			cfg.Workers = 1
			cfg.PollInterval = 50 * time.Microsecond
			if m.vlog {
				cfg.DataDir = t.TempDir()
			}
			tc := newCluster(t, cfg)
			c := tc.connect()
			names := make([]string, keys)
			for i := range names {
				names[i] = fmt.Sprintf("user%012d", i)
			}
			get := func(i int) {
				if _, err := c.Get(names[i%keys]); err != nil {
					t.Fatal(err)
				}
			}
			put := func(i int) {
				if err := c.Put(names[i%keys], value); err != nil {
					t.Fatal(err)
				}
			}
			putDel := func(i int) {
				put(i)
				if err := c.Delete(names[i%keys]); err != nil {
					t.Fatal(err)
				}
			}
			// frame returns a call of one Batch, alternating between the two
			// halves of the keys.
			frame := func(kind BatchOpKind) func(int) {
				values := make([][]byte, batchFrame)
				for j := range values {
					values[j] = value // a get's Value goes unsent
				}
				var halves [2][]BatchOp
				for h := range halves {
					halves[h] = batchOps(kind, names[h*batchFrame:(h+1)*batchFrame], values...)
				}
				return func(i int) {
					res, err := c.Batch(halves[i%2])
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range res {
						if r.Err != nil {
							t.Fatal(r.Err)
						}
					}
				}
			}
			measure := func(what string, budget float64, n int, op func(int)) {
				for i := 0; i < warm; i++ {
					op(i)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < n; i++ {
					op(i)
				}
				runtime.ReadMemStats(&after)
				got := float64(after.Mallocs-before.Mallocs) / float64(n)
				t.Logf("%-8s %-10s %.2f allocs/call, %.0f B/call (budget %.1f)", m.name, what, got,
					float64(after.TotalAlloc-before.TotalAlloc)/float64(n), budget)
				if got > budget {
					t.Errorf("%s %s: %.2f allocs/call exceeds the budget of %.1f", m.name, what, got, budget)
				}
			}
			n := rounds
			if m.vlog {
				n = rounds / 10 // every put waits for a group commit
			}
			for i := 0; i < keys; i++ {
				put(i)
			}
			measure("get", m.get, n, get)
			measure("put", m.put, n, put)
			measure("get×32", m.getFrame, n/batchFrame, frame(BatchGet))
			measure("put×32", m.putFrame, n/batchFrame, frame(BatchPut))
			measure("put+delete", m.putDel, n, putDel)
		})
	}
	// Compaction: every live record of a sealed segment is re-appended at
	// the log head and its index entry's pointer moved in place, so what is
	// left is per segment (its listing and file; the read window is the
	// log's own, reused), amortised over its records. Every key is put twice
	// in a row, so each sealed segment is half dead and half live.
	t.Run("vlog-compaction", func(t *testing.T) {
		const budget, bytesBudget = 0.05, 8.0 // 0.036–0.039, 2 B
		tc := newCluster(t, ServerConfig{Workers: 1, PollInterval: 50 * time.Microsecond, DataDir: t.TempDir(),
			Vlog: VlogConfig{SegmentBytes: 256 << 10, GCInterval: -1, GCThreshold: 0.25}})
		c := tc.connect()
		fill := func() {
			for i := 0; i < 2*keys*64; i++ {
				if err := c.Put(fmt.Sprintf("user%012d", i/2), value); err != nil {
					t.Fatal(err)
				}
			}
		}
		fill()
		tc.server.VlogGCOnce() // warm-up: the relocation path's scratch
		fill()
		moved := tc.server.Stats().Vlog.GCMovedRecords
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tc.server.VlogGCOnce()
		runtime.ReadMemStats(&after)
		moved = tc.server.Stats().Vlog.GCMovedRecords - moved
		if moved < keys {
			t.Fatalf("compaction moved %d records, want at least %d", moved, keys)
		}
		got := float64(after.Mallocs-before.Mallocs) / float64(moved)
		gotBytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(moved)
		t.Logf("vlog     compaction %.3f allocs/record, %.0f B/record over %d records (budgets %.2f, %.0f B)", got,
			gotBytes, moved, budget, bytesBudget)
		if got > budget {
			t.Errorf("compaction: %.3f allocs per relocated record exceeds the budget of %.2f", got, budget)
		}
		if gotBytes > bytesBudget {
			t.Errorf("compaction: %.0f B allocated per relocated record exceeds the budget of %.0f B", gotBytes, bytesBudget)
		}
	})
}
