package cluster

import (
	"testing"
	"time"

	"precursor/internal/core"
	"precursor/internal/obs"
)

// TestQuorumWritePropagatesOneRef checks a replicated write hands every
// replica the SAME valid span ref — the cluster op's — so all replica
// sub-spans stitch under one trace, and the cluster tracer records the
// fan-out.
func TestQuorumWritePropagatesOneRef(t *testing.T) {
	tr := obs.New(obs.Config{Side: obs.SideClient, Ring: 16})
	rg := ReplicaGroup{Name: "group-0"}
	fakes := make([]*fakeBackend, 3)
	for i := range fakes {
		fakes[i] = newFake()
		rg.Replicas = append(rg.Replicas, Shard{
			Name: "group-0/r" + string(rune('0'+i)), Backend: fakes[i],
		})
	}
	c, err := NewReplicated([]ReplicaGroup{rg}, Options{
		Tracer: tr, DisableAutoRepair: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Put returns at quorum; the last replica's ack may still be in
	// flight.
	waitFor(t, "all replicas to see the write", func() bool {
		for _, f := range fakes {
			if len(f.seen()) == 0 {
				return false
			}
		}
		return true
	})

	var want obs.SpanRef
	for i, f := range fakes {
		refs := f.seen()
		if len(refs) != 1 || !refs[0].Valid() {
			t.Fatalf("replica %d saw refs %+v, want exactly one valid ref", i, refs)
		}
		if i == 0 {
			want = refs[0]
		} else if refs[0] != want {
			t.Fatalf("replica %d ref %+v != replica 0 ref %+v", i, refs[0], want)
		}
	}
	// The cluster op's trace is finished by whichever goroutine collects
	// the last replica's ack, possibly after the replicas saw the write.
	waitFor(t, "the cluster op's trace to finish", func() bool { return len(tr.Recent()) > 0 })
	recent := tr.Recent()
	if len(recent) != 1 || recent[0].Kind != "put" {
		t.Fatalf("cluster tracer recent = %+v, want one put", recent)
	}
	if recent[0].ID != want.TraceID || recent[0].Span != want.SpanID {
		t.Fatalf("cluster op (%x,%x) does not match propagated ref %+v",
			recent[0].ID, recent[0].Span, want)
	}
	replicaSpans := 0
	for _, sp := range recent[0].Spans {
		if sp.Replica != "" {
			replicaSpans++
		}
	}
	if replicaSpans != 3 {
		t.Fatalf("cluster trace has %d replica spans, want 3", replicaSpans)
	}
}

// TestHedgedReadSharesTrace checks the primary attempt and the hedge
// carry the SAME trace ref, so the stitched trace shows both server
// spans racing under one cluster read.
func TestHedgedReadSharesTrace(t *testing.T) {
	tr := obs.New(obs.Config{Side: obs.SideClient, Ring: 16})
	slow, fast := newFake(), newFake()
	c, err := NewReplicated([]ReplicaGroup{{
		Name: "group-0",
		Replicas: []Shard{
			{Name: "group-0/slow", Backend: slow},
			{Name: "group-0/fast", Backend: fast},
		},
	}}, Options{
		Tracer:            tr,
		HedgeReads:        true,
		HedgeMinDelay:     time.Millisecond,
		DisableAutoRepair: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	earnHedge(t, c, "k")
	pinPrimary(c)
	slow.getDelay.Store(int64(150 * time.Millisecond))

	if v, err := c.Get("k"); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if c.Stats().HedgesLaunched == 0 {
		t.Fatal("hedge never launched")
	}

	// The slow primary saw a get ref; the fast hedge saw the same one.
	slowRef, fastRef := lastGetRef(t, slow), lastGetRef(t, fast)
	if !slowRef.Valid() || slowRef != fastRef {
		t.Fatalf("primary ref %+v != hedge ref %+v", slowRef, fastRef)
	}
	var clusterGet *obs.Trace
	for _, rec := range tr.Recent() {
		if rec.Kind == "get" {
			g := rec
			clusterGet = &g
		}
	}
	if clusterGet == nil || clusterGet.ID != slowRef.TraceID {
		t.Fatalf("cluster get trace %+v does not match propagated ref %+v", clusterGet, slowRef)
	}
}

// lastGetRef returns the most recent ref a fake saw (skipping the
// setup put's).
func lastGetRef(t *testing.T, f *fakeBackend) obs.SpanRef {
	t.Helper()
	refs := f.seen()
	if len(refs) == 0 {
		t.Fatal("backend saw no refs")
	}
	return refs[len(refs)-1]
}

// TestBatchFanoutAcrossGroupsOneTrace checks a batch frame that fans
// out to two ring groups still carries ONE trace: both groups' backends
// receive refs naming the same trace id (the umbrella batch op's).
func TestBatchFanoutAcrossGroupsOneTrace(t *testing.T) {
	tr := obs.New(obs.Config{Side: obs.SideClient, Ring: 16})
	names := ShardNames(2)
	backends := map[string]*fakeBackend{}
	var shards []Shard
	for _, name := range names {
		b := newFake()
		backends[name] = b
		shards = append(shards, Shard{Name: name, Backend: b})
	}
	c, err := NewReplicated(groupsOfOne(shards), Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Enough distinct keys that both shards own some.
	var ops []core.BatchOp
	for i := 0; i < 32; i++ {
		ops = append(ops, core.BatchOp{
			Kind: core.BatchPut, Key: "key-" + string(rune('a'+i)), Value: []byte("v"),
		})
	}
	res, err := c.Batch(ops)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("op %d: %v", i, res[i].Err)
		}
	}

	var ids []uint64
	for _, name := range names {
		refs := backends[name].seen()
		if len(refs) == 0 {
			t.Fatalf("shard %s saw no batch (keys all routed to one shard?)", name)
		}
		for _, r := range refs {
			if !r.Valid() {
				t.Fatalf("shard %s saw invalid ref", name)
			}
			ids = append(ids, r.TraceID)
		}
	}
	if len(ids) < 2 {
		t.Fatalf("only %d sub-batches recorded, want >= 2 groups", len(ids))
	}
	for _, id := range ids {
		if id != ids[0] {
			t.Fatalf("sub-batches carry different trace ids %x vs %x — not one umbrella trace", id, ids[0])
		}
	}
	// The umbrella op itself is in the ring with that id.
	found := false
	for _, rec := range tr.Recent() {
		if rec.Kind == "batch" && rec.ID == ids[0] {
			found = true
		}
	}
	if !found {
		t.Fatalf("no umbrella batch trace with id %x in ring", ids[0])
	}
}
