package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"precursor/internal/core"
)

// batchOps builds one op of kind per key, values[i] riding with keys[i]
// when given.
func batchOps(kind core.BatchOpKind, keys []string, values ...[]byte) []core.BatchOp {
	ops := make([]core.BatchOp, len(keys))
	for i, k := range keys {
		ops[i] = core.BatchOp{Kind: kind, Key: k}
		if i < len(values) {
			ops[i].Value = values[i]
		}
	}
	return ops
}

// TestBatchRoutingAcrossShards: one batch scattered over four shards
// comes back in the caller's op order, each value stored on its ring
// owner, one batch frame per shard (never op by op).
func TestBatchRoutingAcrossShards(t *testing.T) {
	c, backends := newFakeCluster(t, 4, Options{})

	const n = 64
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("bk%04d", i)
		vals[i] = []byte(keys[i])
	}
	results, err := c.Batch(batchOps(core.BatchPut, keys, vals...))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("put %d: %v", i, r.Err)
		}
		home := c.ShardFor(keys[i])
		if _, ok := backends[home].get(keys[i]); !ok {
			t.Fatalf("key %q not on its ring shard %s", keys[i], home)
		}
	}
	// Ops were shipped as one batch frame per shard, not per-op.
	var frames, shipped uint64
	for _, b := range backends {
		frames += b.batchCalls.Load()
		shipped += b.batchedOps.Load()
	}
	if frames == 0 || frames > 4 {
		t.Errorf("batch frames = %d, want 1..4 (one per owning shard)", frames)
	}
	if shipped != n {
		t.Errorf("batched ops = %d, want %d", shipped, n)
	}
	for name, b := range backends {
		if got := b.calls.Load(); got != 0 {
			t.Errorf("%s saw %d single-op calls for a batch", name, got)
		}
	}

	// Order-preserving reassembly on reads, including per-op not-found.
	getKeys := append(append([]string(nil), keys[:8]...), "bk-missing")
	gres, err := c.Batch(batchOps(core.BatchGet, getKeys))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if gres[i].Err != nil || string(gres[i].Value) != getKeys[i] {
			t.Fatalf("get %d (%q): %q %v", i, getKeys[i], gres[i].Value, gres[i].Err)
		}
	}
	if !errors.Is(gres[8].Err, core.ErrNotFound) {
		t.Errorf("missing key err = %v, want ErrNotFound", gres[8].Err)
	}

	dres, err := c.Batch(batchOps(core.BatchDelete, keys[:4]))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range dres {
		if r.Err != nil {
			t.Fatalf("delete %d: %v", i, r.Err)
		}
	}
}

// TestBatchShardDownIsPerOp: with one shard's breaker open, only the
// ops owned by that shard fail (typed ErrShardDown); batch-mates on
// healthy shards succeed, and a batch is never failed as a unit.
func TestBatchShardDownIsPerOp(t *testing.T) {
	c, backends := newFakeCluster(t, 4, Options{RetryBackoff: time.Minute})
	keyOn := map[string]string{}
	for i := 0; len(keyOn) < 4; i++ {
		k := fmt.Sprintf("probe%06d", i)
		keyOn[c.ShardFor(k)] = k
	}
	const victim = "shard-2"
	backends[victim].setFail(core.ErrClosed)
	_ = c.Put(keyOn[victim], []byte("trip")) // open the breaker

	var ops []core.BatchOp
	var wantDown []bool
	for name, k := range keyOn {
		ops = append(ops, core.BatchOp{Kind: core.BatchPut, Key: k, Value: []byte("v")})
		wantDown = append(wantDown, name == victim)
	}
	results, err := c.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if wantDown[i] {
			if !errors.Is(r.Err, ErrShardDown) {
				t.Errorf("op %d on down shard: %v, want ErrShardDown", i, r.Err)
			}
			var se *ShardError
			if !errors.As(r.Err, &se) || se.Shard != victim {
				t.Errorf("op %d not attributed to %s: %v", i, victim, r.Err)
			}
		} else if r.Err != nil {
			t.Errorf("op %d on healthy shard: %v", i, r.Err)
		}
	}
}

// TestReplicatedBatchQuorumWrite: a batched write to a 3-replica group
// with one replica dead succeeds for every op — no ErrShardDown — and
// the victim is journaled for repair; under an unmeetable quorum every
// write op individually reports ErrNoQuorum joined with ErrUnconfirmed.
func TestReplicatedBatchQuorumWrite(t *testing.T) {
	c, fakes, _ := newReplicatedFakes(t, 3, false, Options{WriteQuorum: 2, DisableAutoRepair: true})
	fakes[2].setFail(core.ErrClosed)

	const n = 16
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("qk%02d", i)
		vals[i] = []byte(keys[i])
	}
	results, err := c.Batch(batchOps(core.BatchPut, keys, vals...))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("batched quorum put %d: %v", i, r.Err)
		}
	}
	// Every acked op is durable on the surviving quorum.
	for _, k := range keys {
		for ri := 0; ri < 2; ri++ {
			if v, ok := fakes[ri].get(k); !ok || string(v) != k {
				t.Fatalf("acked key %q missing on replica %d", k, ri)
			}
		}
	}
	// The dead replica is journaled with the missed keys.
	waitFor(t, "victim journaled", func() bool {
		for _, ss := range c.Stats().Shards {
			if ss.Name == "group-0/r2" {
				return ss.State != "up" && ss.Lag > 0
			}
		}
		return false
	})

	// Per-op not-found classification for deletes survives batching.
	dres, err := c.Batch([]core.BatchOp{
		{Kind: core.BatchDelete, Key: keys[0]},
		{Kind: core.BatchDelete, Key: "qk-ghost"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dres[0].Err != nil {
		t.Errorf("delete existing: %v", dres[0].Err)
	}
	if !errors.Is(dres[1].Err, core.ErrNotFound) {
		t.Errorf("delete missing: %v, want ErrNotFound", dres[1].Err)
	}
}

// TestReplicatedBatchQuorumShortfall: W=3 with a dead replica — each
// batched write op fails with ErrNoQuorum and, having partially
// applied, carries ErrUnconfirmed, attributed to the group.
func TestReplicatedBatchQuorumShortfall(t *testing.T) {
	c, fakes, _ := newReplicatedFakes(t, 3, false, Options{WriteQuorum: 3, DisableAutoRepair: true})
	fakes[1].setFail(core.ErrClosed)
	results, err := c.Batch(batchOps(core.BatchPut, []string{"s1", "s2"}, []byte("a"), []byte("b")))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, ErrNoQuorum) {
			t.Fatalf("op %d = %v, want ErrNoQuorum", i, r.Err)
		}
		if !errors.Is(r.Err, core.ErrUnconfirmed) {
			t.Fatalf("op %d partial write not unconfirmed: %v", i, r.Err)
		}
		var se *ShardError
		if !errors.As(r.Err, &se) || se.Shard != "group-0" {
			t.Fatalf("op %d not attributed to group: %v", i, r.Err)
		}
	}
	if c.Stats().QuorumShortfalls == 0 {
		t.Error("no quorum shortfall recorded")
	}
}

// TestReplicatedBatchReadFailover: batched reads fail over as a
// sub-batch — a dead or Byzantine (ErrIntegrity) replica never
// surfaces to the caller while a healthy replica holds the data.
func TestReplicatedBatchReadFailover(t *testing.T) {
	c, fakes, _ := newReplicatedFakes(t, 3, false, Options{DisableAutoRepair: true})
	keys := []string{"f1", "f2", "f3", "f4"}
	for _, k := range keys {
		if err := c.Put(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all replicas converged", func() bool {
		for _, f := range fakes {
			for _, k := range keys {
				if _, ok := f.get(k); !ok {
					return false
				}
			}
		}
		return true
	})
	for _, inject := range []error{core.ErrClosed, core.ErrIntegrity} {
		fakes[0].setFail(inject)
		fakes[1].setFail(inject)
		results, err := c.Batch(batchOps(core.BatchGet, keys))
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Err != nil || string(r.Value) != "v-"+keys[i] {
				t.Fatalf("inject %v: read %d = %q, %v", inject, i, r.Value, r.Err)
			}
		}
		fakes[0].setFail(nil)
		fakes[1].setFail(nil)
	}
}

// TestBatchClientClosed: batches after Close fail whole with
// ErrClientClosed (nothing was routed).
func TestBatchClientClosed(t *testing.T) {
	c, _ := newFakeCluster(t, 2, Options{})
	_ = c.Close()
	if _, err := c.Batch([]core.BatchOp{{Kind: core.BatchGet, Key: "k"}}); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Batch after close = %v, want ErrClientClosed", err)
	}
}
