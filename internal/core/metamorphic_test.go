package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"precursor/internal/cryptox"
	"precursor/internal/faultfab"
	"precursor/internal/obs"
	"precursor/internal/rdma"
	"precursor/internal/wire"
)

// metaOp is one operation of the metamorphic stream, with the outcome
// the model predicts for it.
type metaOp struct {
	client int // 0: the main client, 1: a second client, for access control
	kind   BatchOpKind
	key    string
	value  []byte
	want   metaResult
}

// metaResult is what a client saw: the value of a get, and the error
// reduced to what callers select on.
type metaResult struct {
	value []byte
	err   string // "" | "not found" | anything else verbatim
}

func metaOutcome(value []byte, err error) metaResult {
	switch {
	case err == nil:
		return metaResult{value: value}
	case errors.Is(err, ErrNotFound):
		return metaResult{err: "not found"}
	}
	return metaResult{err: err.Error()}
}

// metaStream generates a seeded operation stream and runs a plain map
// beside it as the model. The server runs owner-only: a put by anyone
// takes the key over, gets and deletes see only the caller's own keys.
// A final sweep reads every surviving key back through its owner; the
// second result is the length of each surviving value.
func metaStream(seed int64, n int) ([]metaOp, []int) {
	type owned struct {
		value []byte
		owner int
	}
	rng := rand.New(rand.NewSource(seed))
	model := make(map[string]owned)
	ops := make([]metaOp, 0, n+40)
	for i := 0; i < n; i++ {
		op := metaOp{key: fmt.Sprintf("m%d", rng.Intn(40))}
		if rng.Intn(4) == 0 {
			op.client = 1
		}
		cur, exists := model[op.key]
		mine := exists && cur.owner == op.client
		switch rng.Intn(5) {
		case 0, 1:
			op.kind = BatchPut
			op.value = make([]byte, rng.Intn(600))
			rng.Read(op.value)
			model[op.key] = owned{value: op.value, owner: op.client}
		case 2, 3:
			op.kind = BatchGet
			op.want = metaResult{err: "not found"}
			if mine {
				op.want = metaResult{value: cur.value}
			}
		case 4:
			op.kind = BatchDelete
			if mine {
				delete(model, op.key)
			} else {
				op.want = metaResult{err: "not found"}
			}
		}
		ops = append(ops, op)
	}
	var survivors []int
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("m%d", i)
		if cur, ok := model[key]; ok {
			ops = append(ops, metaOp{client: cur.owner, kind: BatchGet, key: key, want: metaResult{value: cur.value}})
			survivors = append(survivors, len(cur.value))
		}
	}
	return ops, survivors
}

// metaRun is what one run of the stream left behind: every
// client-visible result and the server counters that must not depend on
// the framing, plus two that show which paths the run took: frames of more
// than one op, and value-log read-throughs.
type metaRun struct {
	results  []metaResult
	counters struct {
		puts, gets, deletes uint64
		entries             int
		poolBytesInUse      int64
		poolBytesRequested  int64
	}
	batches, readThroughs uint64
}

// runMetaStream executes ops against a fresh server: as single
// operations (batch 0) or as batch frames of up to batch consecutive ops
// of one client.
func runMetaStream(t *testing.T, cfg ServerConfig, ops []metaOp, batch int) *metaRun {
	tc := newCluster(t, cfg)
	tc.server.SetOwnerOnly(true)
	clients := []*Client{tc.connect(), tc.connect()}
	run := &metaRun{}
	for i := 0; i < len(ops); {
		c := clients[ops[i].client]
		if batch == 0 {
			var value []byte
			var err error
			switch op := &ops[i]; op.kind {
			case BatchPut:
				err = c.Put(op.key, op.value)
			case BatchGet:
				value, err = c.Get(op.key)
			case BatchDelete:
				err = c.Delete(op.key)
			}
			run.results = append(run.results, metaOutcome(value, err))
			i++
			continue
		}
		var frame []BatchOp
		for ; i < len(ops) && len(frame) < batch && clients[ops[i].client] == c; i++ {
			frame = append(frame, BatchOp{Kind: ops[i].kind, Key: ops[i].key, Value: ops[i].value})
		}
		results, err := c.Batch(frame)
		if err != nil {
			t.Fatalf("batch ending at op %d: %v", i, err)
		}
		for _, r := range results {
			run.results = append(run.results, metaOutcome(r.Value, r.Err))
		}
	}
	st := tc.server.Stats()
	run.counters.puts, run.counters.gets, run.counters.deletes = st.Puts, st.Gets, st.Deletes
	run.counters.entries, run.counters.poolBytesInUse = st.Entries, st.PoolBytesInUse
	run.counters.poolBytesRequested = st.PoolBytesRequested
	run.batches = st.Batches
	if st.Vlog != nil {
		run.readThroughs = st.Vlog.ReadThroughs
	}
	return run
}

// TestMetamorphicAgainstModel drives a seeded operation stream through
// the complete protocol stack (client crypto, rings, enclave, pool, value
// log) and a plain map side by side; every observable result must match.
// This is the whole-system analogue of the hash table's model check.
//
// The same stream runs in every storage mode and under every framing; the
// server-encryption rows are every combination NewServer accepts with it
// (TestServerEncryptionRefusesTheRest).
// A single op is a frame of one on the wire, so on top of matching the
// model the single-op run and the batch-of-one run must agree result for
// result and on the server's op, entry and pool counters.
//
// The pool holds exactly what the model says it should: each mode names
// the bytes a surviving value of n bytes occupies there (pooled), and
// their sum over the model is the server's PoolBytesRequested — nothing
// leaked by an overwrite or a delete, nothing counted at slot size.
func TestMetamorphicAgainstModel(t *testing.T) {
	const sealed = cryptox.PayloadSealOverhead // nonce + MAC beside the ciphertext
	modes := []struct {
		name   string
		srv    ServerConfig
		vlog   bool
		pooled func(n int) int
	}{
		{name: "base", pooled: func(n int) int { return n + sealed }},
		// The MAC is enclave state, not pool bytes.
		{name: "hardened", srv: ServerConfig{HardenedMACs: true},
			pooled: func(n int) int { return n + sealed - wire.MACSize }},
		{name: "inline", srv: ServerConfig{InlineSmallValues: true},
			pooled: func(n int) int {
				if n < DefaultInlineMax {
					return 0 // enclave-resident
				}
				return n + sealed
			}},
		// A cache threshold inside the value-size range: larger values are
		// disk-only and read through.
		{name: "vlog", vlog: true, srv: ServerConfig{Vlog: VlogConfig{InlineMax: 256, GCInterval: -1}},
			pooled: func(n int) int {
				if n+sealed > 256 {
					return 0 // disk-only
				}
				return n + sealed
			}},
		// The §5.1 baseline: the pool holds the enclave's re-sealed blob,
		// nonce‖ciphertext‖tag. With inline values, its only other accepted
		// combination, small values stay in the enclave as before.
		{name: "server-enc", srv: ServerConfig{ServerEncryption: true},
			pooled: func(n int) int { return n + cryptox.SealOverhead }},
		{name: "server-enc+inline", srv: ServerConfig{ServerEncryption: true, InlineSmallValues: true},
			pooled: func(n int) int {
				if n < DefaultInlineMax {
					return 0
				}
				return n + cryptox.SealOverhead
			}},
	}
	framings := []struct {
		name  string
		batch int
	}{{"single", 0}, {"batch-of-1", 1}, {"batch-of-8", 8}}
	ops, survivors := metaStream(20260928, 600)
	for _, m := range modes {
		var single *metaRun
		for _, f := range framings {
			t.Run(m.name+"/"+f.name, func(t *testing.T) {
				cfg := m.srv
				if m.vlog {
					cfg.DataDir = t.TempDir()
				}
				run := runMetaStream(t, cfg, ops, f.batch)
				for i, got := range run.results {
					if want := ops[i].want; got.err != want.err || !bytes.Equal(got.value, want.value) {
						t.Fatalf("op %d (client %d kind %d key %s): got err %q / %d bytes, model says err %q / %d bytes",
							i, ops[i].client, ops[i].kind, ops[i].key, got.err, len(got.value), want.err, len(want.value))
					}
				}
				if run.counters.entries != len(survivors) {
					t.Errorf("entries = %d, model holds %d keys", run.counters.entries, len(survivors))
				}
				var pooled int64
				for _, n := range survivors {
					pooled += int64(m.pooled(n))
				}
				if run.counters.poolBytesRequested != pooled {
					t.Errorf("PoolBytesRequested = %d, model's stored bytes sum to %d", run.counters.poolBytesRequested, pooled)
				}
				if run.counters.poolBytesInUse < pooled {
					t.Errorf("PoolBytesInUse = %d is below the %d bytes stored", run.counters.poolBytesInUse, pooled)
				}
				if m.vlog && run.readThroughs == 0 {
					t.Error("no get read through to the value log: the disk-only path went untested")
				}
				if (run.batches != 0) != (f.batch > 1) {
					t.Errorf("server counted %d frames of more than one op under %s framing", run.batches, f.name)
				}
				switch {
				case f.batch == 0:
					single = run
				case f.batch == 1 && single != nil:
					if !reflect.DeepEqual(single.results, run.results) {
						t.Error("batch-of-one results diverge from the single-op run's")
					}
					if single.counters != run.counters {
						t.Errorf("server counters depend on the framing:\nsingle     %+v\nbatch-of-1 %+v", single.counters, run.counters)
					}
				}
			})
		}
	}
}

// TestGridValuesFillTheirSlot ties the framing NewServer hands the pool to
// the stored form the apply path writes: in every placement, a value of a
// grid size — 32 B, 1 KiB, 4 KiB — fills its slot to the byte. Should a
// nonce or a MAC change size without the framing, every such value would
// move up a class, and the pool would count that padding here.
func TestGridValuesFillTheirSlot(t *testing.T) {
	for _, m := range []struct {
		name string
		srv  ServerConfig
	}{
		{name: "base"},
		{name: "hardened", srv: ServerConfig{HardenedMACs: true}},
		{name: "server-enc", srv: ServerConfig{ServerEncryption: true}},
		{name: "vlog", srv: ServerConfig{Vlog: VlogConfig{InlineMax: 8 << 10, GCInterval: -1}}},
	} {
		t.Run(m.name, func(t *testing.T) {
			cfg := m.srv
			if m.name == "vlog" {
				cfg.DataDir = t.TempDir()
			}
			tc := newCluster(t, cfg)
			c := tc.connect()
			for _, n := range []int{32, 1 << 10, 4 << 10} {
				if err := c.Put(fmt.Sprintf("v%d", n), make([]byte, n)); err != nil {
					t.Fatal(err)
				}
			}
			st := tc.server.Stats()
			if st.PoolBytesRequested == 0 || st.PoolBytesInUse != st.PoolBytesRequested {
				t.Errorf("three grid-sized values: %d bytes stored in %d bytes of slots", st.PoolBytesRequested, st.PoolBytesInUse)
			}
		})
	}
}

// TestMetamorphicWithSealRestoreCycles interleaves seal/restore cycles
// with the random stream: a restore of the latest snapshot must behave as
// a no-op for the observable state.
func TestMetamorphicWithSealRestoreCycles(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	rng := rand.New(rand.NewSource(99))
	model := make(map[string][]byte)

	for round := 0; round < 5; round++ {
		for op := 0; op < 60; op++ {
			key := fmt.Sprintf("k%d", rng.Intn(25))
			if rng.Intn(2) == 0 {
				value := make([]byte, rng.Intn(300))
				rng.Read(value)
				if err := c.Put(key, value); err != nil {
					t.Fatal(err)
				}
				model[key] = append([]byte(nil), value...)
			} else if err := c.Delete(key); err == nil {
				delete(model, key)
			}
		}
		var snap bytes.Buffer
		if err := tc.server.Seal(&snap); err != nil {
			t.Fatalf("round %d seal: %v", round, err)
		}
		if err := tc.server.Restore(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatalf("round %d restore: %v", round, err)
		}
		for key, want := range model {
			got, err := c.Get(key)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("round %d key %s after restore: %v", round, key, err)
			}
		}
		if got := tc.server.Stats().Entries; got != len(model) {
			t.Fatalf("round %d entries = %d, model = %d", round, got, len(model))
		}
	}
}

// TestCallShapeKeepsOutcome: the shape of a call does not change its
// outcome. With the reply to a read's first attempt held on the wire past
// that attempt's budget slice, Get and a Batch of one get both retry once
// under a fresh oid and succeed — the held reply arrives stale and is
// skipped. And a frame that times out is marked unconfirmed in its trace
// only when it carries a write: a frame of only gets is a read.
func TestCallShapeKeepsOutcome(t *testing.T) {
	replies := faultfab.New(faultfab.Config{Seed: 1}) // faultless until partitioned
	tc := newCluster(t, ServerConfig{})
	tc.wrapSrv = func(c rdma.Conn) rdma.Conn { return replies.Wrap(c, faultfab.S2C, "server") }
	tracer := obs.New(obs.Config{Side: obs.SideClient, Workers: 1, Ring: 64})
	c := tc.connect(func(cfg *ClientConfig) {
		cfg.Timeout, cfg.ReadRetries, cfg.RetryBase, cfg.Tracer = time.Second, 1, time.Millisecond, tracer
	})
	t.Cleanup(func() { replies.Heal(faultfab.S2C) })
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	shapes := []struct {
		name string
		get  func() ([]byte, error)
	}{
		{"get", func() ([]byte, error) { return c.Get("k") }},
		{"batch of one get", func() ([]byte, error) {
			res, err := c.Batch([]BatchOp{{Kind: BatchGet, Key: "k"}})
			if err != nil {
				return nil, err
			}
			return res[0].Value, res[0].Err
		}},
	}
	for _, s := range shapes {
		retries, gets := c.StatsStruct().Retries, tc.server.Stats().Gets
		replies.Partition(faultfab.S2C)
		// Once the server has applied a second attempt, the first has run
		// out its slice: heal, and both replies arrive in order.
		var returned atomic.Bool
		healed := make(chan struct{})
		go func() {
			defer close(healed)
			for !returned.Load() && tc.server.Stats().Gets < gets+2 {
				time.Sleep(time.Millisecond)
			}
			replies.Heal(faultfab.S2C)
		}()
		v, err := s.get()
		returned.Store(true)
		<-healed
		if err != nil || string(v) != "v" {
			t.Errorf("%s with its first reply held: %q, %v; want the value", s.name, v, err)
		}
		if n := c.StatsStruct().Retries - retries; n != 1 {
			t.Errorf("%s with its first reply held: %d retries, want 1", s.name, n)
		}
	}

	frames := []struct {
		name        string
		ops         []BatchOp
		unconfirmed bool
	}{
		{"gets", []BatchOp{{Kind: BatchGet, Key: "k"}, {Kind: BatchGet, Key: "k2"}}, false},
		{"put and get", []BatchOp{{Kind: BatchPut, Key: "k2", Value: []byte("v2")}, {Kind: BatchGet, Key: "k"}}, true},
	}
	for _, f := range frames {
		replies.Partition(faultfab.S2C)
		_, err := c.Batch(f.ops)
		replies.Heal(faultfab.S2C)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("frame of %s with every reply held: %v, want ErrTimeout", f.name, err)
		}
		recent := tracer.Recent()
		if tr := recent[len(recent)-1]; tr.Kind != "batch" || tr.Unconfirmed != f.unconfirmed {
			t.Errorf("timed-out frame of %s traced as %q, unconfirmed %v; want a batch, unconfirmed %v",
				f.name, tr.Kind, tr.Unconfirmed, f.unconfirmed)
		}
	}
}
