package core

import (
	"fmt"
	"testing"
	"time"

	"precursor/internal/rdma"
	"precursor/internal/sgx"
)

// TestEPCPagingTriggersFunctionally reproduces Figure 7's paging
// mechanism on the real store: with a deliberately tiny EPC, growing the
// enclave table past it makes accesses fault, visibly in the enclave
// stats — while the store keeps operating correctly.
func TestEPCPagingTriggersFunctionally(t *testing.T) {
	// 24 pages of EPC ≈ 96 KiB: the hash table exceeds it quickly.
	platform, err := sgx.NewPlatform(sgx.WithEPCBytes(24 * sgx.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	fabric := rdma.NewFabric()
	srvDev, err := fabric.NewDevice("server")
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(srvDev, ServerConfig{
		Platform: platform, Workers: 2, PollInterval: time.Microsecond,
		ImagePages: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	cliDev, err := fabric.NewDevice("client")
	if err != nil {
		t.Fatal(err)
	}
	cq, sq := fabric.ConnectRC(cliDev, srvDev)
	go func() { _, _ = server.HandleConnection(sq) }()
	client, err := Connect(ClientConfig{
		Conn: cq, Device: cliDev,
		PlatformKey: platform.AttestationPublicKey(),
		Measurement: server.Measurement(),
		Timeout:     30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Insert until the table spans well past 24 pages (~2200 entries at
	// 92 B/bucket ≈ 50 pages with load factor).
	const n = 3000
	for i := 0; i < n; i++ {
		if err := client.Put(fmt.Sprintf("key-%05d", i), []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	st := server.Stats().Enclave
	if st.PageFaults == 0 {
		t.Fatalf("no EPC faults despite %d pages over a 24-page EPC", st.EPCPages)
	}
	// Correctness is unaffected by paging — only latency (modelled via
	// the charged cycles).
	for i := 0; i < n; i += 250 {
		got, err := client.Get(fmt.Sprintf("key-%05d", i))
		if err != nil || string(got) != "v" {
			t.Fatalf("get %d under paging: %q %v", i, got, err)
		}
	}
	if st.Cycles == 0 {
		t.Error("no cycles charged for paging")
	}
	t.Logf("paging: %d pages working set, %d faults, %.2fms of modelled stall",
		st.EPCPages, st.PageFaults, float64(st.Cycles)/3.7e6)
}

// TestNewKeyProbePassFaultsUnchanged pins the paging model's figures for a
// load of new keys, overwrites and gets under EPC pressure. A put of a new
// key once probed its buckets twice — a lookup pass, then an insert pass
// over the same buckets — and now places the key in the pass that found it
// missing. The second touch of a bucket was always a hit, so the working
// set and the fault count must be exactly those measured before the
// change, with the same load.
//
// The fault count was re-measured once since, when the table's home bucket
// became a multiply-shift of the mixed hash tag (bucket counts that are not
// powers of two): the same keys land in other buckets, so the pages they
// touch, and the order they touch them in, changed — 7 465 faults became
// 7 429. The working set did not: 3 000 keys take 4 096 buckets on either
// ladder.
func TestNewKeyProbePassFaultsUnchanged(t *testing.T) {
	const (
		keys  = 3000
		frame = 50
		// Measured with this load since the home bucket was last changed.
		parentPageFaults = 7_429
		parentEPCPages   = 98
	)
	platform, err := sgx.NewPlatform(sgx.WithEPCBytes(24 * sgx.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	fabric := rdma.NewFabric()
	srvDev, err := fabric.NewDevice("server")
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(srvDev, ServerConfig{
		Platform: platform, Workers: 1, PollInterval: time.Microsecond, ImagePages: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	tc := &testCluster{t: t, fabric: fabric, platform: platform, server: server, srvDev: srvDev}
	c := tc.connect()

	ops := make([]BatchOp, 0, frame)
	run := func(kind BatchOpKind, value []byte) {
		for i := 0; i < keys; i += frame {
			ops = ops[:0]
			for j := i; j < i+frame; j++ {
				ops = append(ops, BatchOp{Kind: kind, Key: fmt.Sprintf("key-%05d", j), Value: value})
			}
			results, err := c.Batch(ops)
			if err != nil {
				t.Fatalf("frame at %d: %v", i, err)
			}
			for _, r := range results {
				if r.Err != nil {
					t.Fatalf("op in frame at %d: %v", i, r.Err)
				}
			}
		}
	}
	run(BatchPut, []byte("new"))       // every key new: the probe pass that places it
	run(BatchPut, []byte("overwrite")) // every key present: replaced in place
	run(BatchGet, nil)

	st := server.Stats().Enclave
	t.Logf("%d faults, %d pages", st.PageFaults, st.EPCPages)
	if st.PageFaults != parentPageFaults || st.EPCPages != parentEPCPages {
		t.Errorf("paging model moved: %d faults, %d pages; before the change %d faults, %d pages",
			st.PageFaults, st.EPCPages, parentPageFaults, parentEPCPages)
	}
}
