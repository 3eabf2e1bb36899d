package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"precursor/internal/faultfab"
	"precursor/internal/rdma"
)

// batchOps builds one op of kind per key, values[i] riding with keys[i]
// when given.
func batchOps(kind BatchOpKind, keys []string, values ...[]byte) []BatchOp {
	ops := make([]BatchOp, len(keys))
	for i, k := range keys {
		ops[i] = BatchOp{Kind: kind, Key: k}
		if i < len(values) {
			ops[i].Value = values[i]
		}
	}
	return ops
}

// batchModes runs a subtest under each server storage mode the batch
// path has a distinct branch for.
func batchModes(t *testing.T, fn func(t *testing.T, tc *testCluster, c *Client)) {
	t.Helper()
	modes := []struct {
		name string
		cfg  ServerConfig
	}{
		{"base", ServerConfig{}},
		{"hardened", ServerConfig{HardenedMACs: true}},
		{"inline", ServerConfig{InlineSmallValues: true}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			tc := newCluster(t, m.cfg)
			fn(t, tc, tc.connect())
		})
	}
	t.Run("vlog", func(t *testing.T) {
		tc := newCluster(t, ServerConfig{DataDir: t.TempDir()})
		fn(t, tc, tc.connect())
	})
}

func TestBatchPutGetDeleteRoundTrip(t *testing.T) {
	batchModes(t, func(t *testing.T, tc *testCluster, c *Client) {
		keys := make([]string, 20)
		values := make([][]byte, 20)
		for i := range keys {
			keys[i] = fmt.Sprintf("batch-key-%d", i)
			values[i] = bytes.Repeat([]byte{byte(i + 1)}, 10+i*13)
		}
		results, err := c.Batch(batchOps(BatchPut, keys, values...))
		if err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("put %d: %v", i, r.Err)
			}
		}
		results, err = c.Batch(batchOps(BatchGet, keys))
		if err != nil {
			t.Fatalf("GetBatch: %v", err)
		}
		for i, r := range results {
			if r.Err != nil || !bytes.Equal(r.Value, values[i]) {
				t.Fatalf("get %d: err=%v len=%d want %d", i, r.Err, len(r.Value), len(values[i]))
			}
		}
		results, err = c.Batch(batchOps(BatchDelete, keys[:10]))
		if err != nil {
			t.Fatalf("DeleteBatch: %v", err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("delete %d: %v", i, r.Err)
			}
		}
		results, err = c.Batch(batchOps(BatchGet, keys))
		if err != nil {
			t.Fatalf("GetBatch after delete: %v", err)
		}
		for i, r := range results {
			if i < 10 {
				if !errors.Is(r.Err, ErrNotFound) {
					t.Fatalf("deleted key %d: want ErrNotFound, got %v", i, r.Err)
				}
			} else if r.Err != nil || !bytes.Equal(r.Value, values[i]) {
				t.Fatalf("surviving key %d: %v", i, r.Err)
			}
		}
	})
}

func TestBatchMixedOpsAndStatuses(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	if err := c.Put("exists", []byte("old")); err != nil {
		t.Fatal(err)
	}
	results, err := c.Batch([]BatchOp{
		{Kind: BatchPut, Key: "exists", Value: []byte("new")},
		{Kind: BatchGet, Key: "exists"},
		{Kind: BatchGet, Key: "missing"},
		{Kind: BatchDelete, Key: "missing"},
		{Kind: BatchPut, Key: "fresh", Value: []byte("v")},
		{Kind: BatchDelete, Key: "fresh"},
		{Kind: BatchGet, Key: "fresh"},
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if results[0].Err != nil {
		t.Errorf("overwrite put: %v", results[0].Err)
	}
	// Ops apply in order, so the get at index 1 observes the put at 0.
	if results[1].Err != nil || !bytes.Equal(results[1].Value, []byte("new")) {
		t.Errorf("ordered get: %q, %v", results[1].Value, results[1].Err)
	}
	if !errors.Is(results[2].Err, ErrNotFound) {
		t.Errorf("missing get: %v", results[2].Err)
	}
	if !errors.Is(results[3].Err, ErrNotFound) {
		t.Errorf("missing delete: %v", results[3].Err)
	}
	if results[4].Err != nil || results[5].Err != nil {
		t.Errorf("fresh put/delete: %v, %v", results[4].Err, results[5].Err)
	}
	if !errors.Is(results[6].Err, ErrNotFound) {
		t.Errorf("get after in-batch delete: %v", results[6].Err)
	}
}

func TestBatchReplayRejectedPerOp(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	if _, err := c.Batch(batchOps(BatchPut, []string{"r1"}, []byte("v"))); err != nil {
		t.Fatal(err)
	}
	// Force an oid reuse: the server must reject the whole batch with a
	// sealed replay notice, and the client must surface it per-op — for
	// writes joined with ErrUnconfirmed (the first frame with this oid
	// may have been the one applied).
	c.mu.Lock()
	c.oid -= 2
	c.mu.Unlock()
	results, err := c.Batch([]BatchOp{
		{Kind: BatchPut, Key: "r2", Value: []byte("w")},
		{Kind: BatchGet, Key: "r1"},
	})
	if !errors.Is(err, ErrReplay) {
		t.Fatalf("batch-level error: %v, want ErrReplay", err)
	}
	if !errors.Is(results[0].Err, ErrReplay) || !errors.Is(results[0].Err, ErrUnconfirmed) {
		t.Errorf("write op: %v, want ErrReplay+ErrUnconfirmed", results[0].Err)
	}
	if !errors.Is(results[1].Err, ErrReplay) || errors.Is(results[1].Err, ErrUnconfirmed) {
		t.Errorf("read op: %v, want plain ErrReplay", results[1].Err)
	}
	// A fresh oid works again.
	c.mu.Lock()
	c.oid += 2
	c.mu.Unlock()
	if _, err := c.Batch(batchOps(BatchGet, []string{"r1"})); err != nil {
		t.Fatalf("post-replay batch: %v", err)
	}
}

func TestBatchValidation(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	if _, err := c.Batch(nil); !errors.Is(err, ErrTooLarge) {
		t.Errorf("empty batch: %v", err)
	}
	big := make([]BatchOp, 200)
	for i := range big {
		big[i] = BatchOp{Kind: BatchGet, Key: "k"}
	}
	if _, err := c.Batch(big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized batch: %v", err)
	}
	if _, err := c.Batch([]BatchOp{{Kind: BatchGet, Key: ""}}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("empty key: %v", err)
	}
	if _, err := c.Batch([]BatchOp{{Kind: 0, Key: "k"}}); err == nil {
		t.Error("invalid kind accepted")
	}
	// A batch whose assembled frame exceeds the ring slot fails before
	// sending — no partial application.
	huge := make([]BatchOp, 4)
	for i := range huge {
		huge[i] = BatchOp{Kind: BatchPut, Key: fmt.Sprintf("h%d", i),
			Value: bytes.Repeat([]byte{1}, 8*1024)}
	}
	if _, err := c.Batch(huge); !errors.Is(err, ErrTooLarge) {
		t.Errorf("frame-oversized batch: %v", err)
	}
	if _, err := c.Batch(batchOps(BatchGet, []string{"h0"})); err != nil {
		t.Fatalf("client unusable after rejected batch: %v", err)
	}
}

func TestBatchOversizedReplyStripsGets(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	// Individually-put values that together exceed one response slot:
	// the server must strip the get payloads rather than drop or split
	// the reply, reporting those gets as server errors while keeping the
	// interleaved write results intact.
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("wide-%d", i)
		if err := c.Put(keys[i], bytes.Repeat([]byte{byte(i)}, 4*1024)); err != nil {
			t.Fatal(err)
		}
	}
	ops := make([]BatchOp, 0, len(keys)+1)
	for _, k := range keys {
		ops = append(ops, BatchOp{Kind: BatchGet, Key: k})
	}
	ops = append(ops, BatchOp{Kind: BatchPut, Key: "tiny", Value: []byte("t")})
	results, err := c.Batch(ops)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	stripped := 0
	for i := 0; i < len(keys); i++ {
		if results[i].Err != nil {
			stripped++
		}
	}
	if stripped == 0 {
		t.Error("no gets stripped from an oversized reply")
	}
	if results[len(keys)].Err != nil {
		t.Errorf("write result lost in oversized reply: %v", results[len(keys)].Err)
	}
	if v, err := c.Get("tiny"); err != nil || !bytes.Equal(v, []byte("t")) {
		t.Errorf("write not applied: %q, %v", v, err)
	}
}

func TestBatchOwnerOnlyAccessControl(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	tc.server.SetOwnerOnly(true)
	owner := tc.connect()
	other := tc.connect()
	if _, err := owner.Batch(batchOps(BatchPut, []string{"mine"}, []byte("secret"))); err != nil {
		t.Fatal(err)
	}
	results, err := other.Batch(batchOps(BatchGet, []string{"mine"}))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, ErrNotFound) {
		t.Errorf("foreign batch get: %v, want ErrNotFound (pretend absence)", results[0].Err)
	}
	results, err = other.Batch(batchOps(BatchDelete, []string{"mine"}))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, ErrNotFound) {
		t.Errorf("foreign batch delete: %v", results[0].Err)
	}
	if got, err := owner.Get("mine"); err != nil || !bytes.Equal(got, []byte("secret")) {
		t.Errorf("owner's key damaged: %q, %v", got, err)
	}
}

// TestBatchValuesShape: a frame's get values share one block, and nothing
// of that shows to a caller. In every placement a batch of gets returns
// byte for byte what single Gets return; each value's capacity is its
// length, so an append to one value, or a write into it, leaves the others
// as they were; an empty value is nil, as a single Get's is; a get whose
// payload fails its check is ErrIntegrity on its own while its neighbours
// stay correct; and a frame retried after a timeout returns the values of
// the attempt that succeeded, not of the one whose reply came late.
func TestBatchValuesShape(t *testing.T) {
	// Empty, inline-sized (below DefaultInlineMax) and external values; the
	// last is external in every placement, so its payload can be tampered.
	sizes := []int{0, 1, 7, 16, 33, 55, 56, 64, 100, 255, 1000, 4000}
	for _, m := range []struct {
		name string
		cfg  ServerConfig
	}{
		{"base", ServerConfig{}},
		{"hardened", ServerConfig{HardenedMACs: true}},
		{"inline", ServerConfig{InlineSmallValues: true}},
		{"server-enc", ServerConfig{ServerEncryption: true}},
		{"vlog", ServerConfig{}},
	} {
		t.Run(m.name, func(t *testing.T) {
			cfg := m.cfg
			if m.name == "vlog" {
				cfg.DataDir = t.TempDir()
			}
			tc := newCluster(t, cfg)
			host := hostRings(t, tc)
			writer := tc.connect() // its replies flow while the reader's are held
			replies := faultfab.New(faultfab.Config{Seed: 1})
			tc.wrapSrv = func(c rdma.Conn) rdma.Conn { return replies.Wrap(c, faultfab.S2C, "server") }
			// Two attempts of 1.5 s each: the writer's puts between them must
			// land before the first one's slice runs out.
			c := tc.connect(func(cfg *ClientConfig) {
				cfg.Timeout, cfg.ReadRetries, cfg.RetryBase = 3*time.Second, 1, time.Millisecond
			})
			t.Cleanup(func() { replies.Heal(faultfab.S2C) })
			keys := make([]string, len(sizes))
			want := make([][]byte, len(sizes))
			for i, n := range sizes {
				keys[i], want[i] = fmt.Sprintf("shape-%d", i), bytes.Repeat([]byte{byte(i + 1)}, n)
				if err := writer.Put(keys[i], want[i]); err != nil {
					t.Fatal(err)
				}
			}
			ops := batchOps(BatchGet, keys)
			// check compares a frame's results with want, op by op.
			check := func(what string, res []BatchResult, want [][]byte) {
				t.Helper()
				for i, r := range res {
					switch {
					case r.Err != nil || !bytes.Equal(r.Value, want[i]):
						t.Errorf("%s: get %d = %d bytes, %v; want %d bytes", what, i, len(r.Value), r.Err, len(want[i]))
					case cap(r.Value) != len(r.Value):
						t.Errorf("%s: get %d has capacity %d beyond its %d bytes", what, i, cap(r.Value), len(r.Value))
					case len(want[i]) == 0 && r.Value != nil:
						t.Errorf("%s: empty get %d = %#v, want nil", what, i, r.Value)
					}
				}
			}

			res, err := c.Batch(ops)
			if err != nil {
				t.Fatal(err)
			}
			check("batch", res, want)
			for i := range keys {
				single, err := c.Get(keys[i])
				if err != nil || !bytes.Equal(single, res[i].Value) || (single == nil) != (res[i].Value == nil) {
					t.Errorf("Get %d = %#v, %v; the batch returned %#v", i, single, err, res[i].Value)
				}
			}
			for i := range res {
				v := res[i].Value
				_ = append(v, bytes.Repeat([]byte{0xee}, 64)...)
				for j := range v {
					v[j] ^= 0xff
				}
				for k := range res {
					if k != i && !bytes.Equal(res[k].Value, want[k]) {
						t.Errorf("appending to and overwriting get %d changed get %d", i, k)
					}
				}
				for j := range v {
					v[j] ^= 0xff
				}
			}

			// The last byte of the reply's payload region is the last get's:
			// its MAC, its ciphertext under an enclave-held MAC, or its tag.
			host(func(msg []byte) {
				if resp, ok := okReply(msg); ok && len(resp.Payload) > 0 {
					resp.Payload[len(resp.Payload)-1] ^= 1
				}
			})
			res, err = c.Batch(ops)
			host(nil)
			if err != nil {
				t.Fatal(err)
			}
			last := len(res) - 1
			if !errors.Is(res[last].Err, ErrIntegrity) || res[last].Value != nil {
				t.Errorf("tampered get = %q, %v; want ErrIntegrity", res[last].Value, res[last].Err)
			}
			check("beside a tampered get", res[:last], want)

			// The first attempt's reply is held until the server has applied
			// the second, and the values change in between: the frame must
			// return the second attempt's.
			fresh := make([][]byte, len(sizes))
			for i, n := range sizes {
				fresh[i] = bytes.Repeat([]byte{byte(0x80 + i)}, n)
			}
			retries, gets := c.StatsStruct().Retries, tc.server.Stats().Gets
			applied := func(n uint64) bool {
				for deadline := time.Now().Add(10 * time.Second); tc.server.Stats().Gets < gets+n; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						return false
					}
				}
				return true
			}
			replies.Partition(faultfab.S2C)
			healed := make(chan struct{})
			go func() {
				defer close(healed)
				defer replies.Heal(faultfab.S2C)
				if !applied(uint64(len(keys))) {
					t.Error("the first attempt was never applied")
					return
				}
				for i := range keys {
					if err := writer.Put(keys[i], fresh[i]); err != nil {
						t.Error(err)
					}
				}
				if !applied(uint64(2 * len(keys))) {
					t.Error("the second attempt was never applied")
				}
			}()
			res, err = c.Batch(ops)
			<-healed
			if err != nil {
				t.Fatal(err)
			}
			check("retried batch", res, fresh)
			if n := c.StatsStruct().Retries - retries; n != 1 {
				t.Errorf("the held frame was retried %d times, want 1", n)
			}
		})
	}
}
