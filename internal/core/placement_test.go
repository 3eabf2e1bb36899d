package core

// The server-encryption placement (§5.1 baseline): the combinations it
// accepts, what binds a payload to its op, what a mismatched placement and
// a tampered store end in, and the exact enclave crypto bytes per op.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"precursor/internal/cryptox"
	"precursor/internal/rdma"
	"precursor/internal/ringbuf"
	"precursor/internal/sgx"
	"precursor/internal/wire"
)

// TestServerEncryptionRefusesTheRest: NewServer accepts server encryption
// alone and with inline values — the two rows of TestMetamorphicAgainstModel
// — and refuses every other combination.
func TestServerEncryptionRefusesTheRest(t *testing.T) {
	platform, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]ServerConfig{
		"hardened MACs": {ServerEncryption: true, HardenedMACs: true},
		"a value log":   {ServerEncryption: true, DataDir: t.TempDir()},
	} {
		cfg.Platform = platform
		if s, err := NewServer(rdma.NewDevice(name), cfg); err == nil {
			s.Close()
			t.Errorf("NewServer accepted server encryption with %s", name)
		}
	}
}

// hostRings gives a test the host's hand on the rings: every ring message
// written, request or reply, passes through the function last set, which
// may rewrite it in place. Lengths are kept, so the framing stays valid.
func hostRings(t *testing.T, tc *testCluster) func(rewrite func(msg []byte)) {
	var mu sync.Mutex
	var rewrite func([]byte)
	tc.fabric.SetFaultHook(func(op rdma.OpType, data []byte) ([]byte, bool) {
		mu.Lock()
		defer mu.Unlock()
		if rewrite == nil || op != rdma.OpWrite || len(data) <= ringbuf.Overhead || data[0] != ringbuf.StartSign {
			return data, false
		}
		out := append([]byte(nil), data...)
		rewrite(out[ringbuf.Overhead-1 : len(out)-1])
		return out, false
	})
	t.Cleanup(func() { tc.fabric.SetFaultHook(nil) })
	return func(f func([]byte)) {
		mu.Lock()
		rewrite = f
		mu.Unlock()
	}
}

// okReply decodes msg as a reply frame with status OK; a request never
// starts with that byte, as opcodes start at 1.
func okReply(msg []byte) (wire.Response, bool) {
	var resp wire.Response
	return resp, msg[0] == byte(wire.StatusOK) && resp.Decode(msg) == nil
}

// swapHalves swaps the two halves of b in place.
func swapHalves(b []byte) {
	h := len(b) / 2
	for i := 0; i < h; i++ {
		b[i], b[h+i] = b[h+i], b[i]
	}
}

// TestServerEncPayloadBinding: under server encryption a payload's AD is
// client id ‖ oid ‖ op index, in both directions, so the host can neither
// move a payload to another op of its frame nor replay it into a later one.
// Each attack ends every op it touched in a typed error, nothing wrong is
// stored or returned, and a Get afterwards returns the last acked value.
func TestServerEncPayloadBinding(t *testing.T) {
	tc := newCluster(t, ServerConfig{ServerEncryption: true})
	c := tc.connect(func(cfg *ClientConfig) { cfg.Timeout = 500 * time.Millisecond })
	host := hostRings(t, tc)
	value := func(tag byte) []byte { return bytes.Repeat([]byte{tag}, 64) }
	segLen := 64 + cryptox.SealOverhead
	acked := map[string][]byte{"a": value('a'), "b": value('b')}
	for k, v := range acked {
		mustPut(t, c, k, v)
	}
	holdsAcked := func(t *testing.T) {
		t.Helper()
		for k, want := range acked {
			if got, err := c.Get(k); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Get(%s) = %q, %v; want the last acked value %q", k, got, err, want)
			}
		}
	}

	t.Run("swap the put segments of a batch", func(t *testing.T) {
		host(func(msg []byte) {
			var br wire.BatchRequest
			if wire.DecodeBatchRequest(msg, &br) == nil && br.ClientID == c.ID() && len(br.Payload) == 2*segLen {
				swapHalves(br.Payload)
			}
		})
		res, err := c.Batch([]BatchOp{{Kind: BatchPut, Key: "a", Value: value('A')}, {Kind: BatchPut, Key: "b", Value: value('B')}})
		host(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if !errors.Is(r.Err, ErrBadResponse) {
				t.Errorf("put %d carrying the other op's segment: %v, want a sealed refusal", i, r.Err)
			}
		}
		holdsAcked(t)
	})

	t.Run("replay a put segment into a later frame", func(t *testing.T) {
		host(replaySegment(c))
		mustPut(t, c, "a", value('1'))
		acked["a"] = value('1')
		before := tc.server.Stats().AuthFailures
		err := c.Put("a", value('2'))
		host(nil)
		if !errors.Is(err, ErrBadResponse) || errors.Is(err, ErrUnconfirmed) {
			t.Errorf("put carrying an earlier put's segment: %v, want a sealed refusal", err)
		}
		if tc.server.Stats().AuthFailures == before {
			t.Error("the enclave counted no authentication failure")
		}
		holdsAcked(t)
	})

	t.Run("swap the get payloads of a batch reply", func(t *testing.T) {
		host(func(msg []byte) {
			if resp, ok := okReply(msg); ok && len(resp.Payload) == 2*segLen {
				swapHalves(resp.Payload)
			}
		})
		res, err := c.Batch([]BatchOp{{Kind: BatchGet, Key: "a"}, {Kind: BatchGet, Key: "b"}})
		host(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if !errors.Is(r.Err, ErrIntegrity) || r.Value != nil {
				t.Errorf("get %d given the other op's payload: %q, %v; want ErrIntegrity", i, r.Value, r.Err)
			}
		}
		holdsAcked(t)
	})

	t.Run("replay a get payload into a later reply", func(t *testing.T) {
		var earlier []byte
		host(func(msg []byte) {
			resp, ok := okReply(msg)
			switch {
			case !ok || len(resp.Payload) != segLen:
			case earlier == nil:
				earlier = append([]byte(nil), resp.Payload...)
			default:
				copy(resp.Payload, earlier)
			}
		})
		got, err := c.Get("a")
		if err != nil || !bytes.Equal(got, acked["a"]) {
			t.Fatalf("Get(a) = %q, %v", got, err)
		}
		got, err = c.Get("b")
		host(nil)
		if !errors.Is(err, ErrIntegrity) || got != nil {
			t.Errorf("Get(b) given a's earlier payload: %q, %v; want ErrIntegrity", got, err)
		}
		holdsAcked(t)
	})
}

// replaySegment is a host rewrite that puts the payload region of c's first
// frame carrying one into every later such frame of the same length.
func replaySegment(c *Client) func(msg []byte) {
	var earlier []byte
	return func(msg []byte) {
		var br wire.BatchRequest
		switch {
		case wire.DecodeBatchRequest(msg, &br) != nil || br.ClientID != c.ID() || len(br.Payload) == 0:
		case earlier == nil:
			earlier = append([]byte(nil), br.Payload...)
		case len(earlier) == len(br.Payload):
			copy(br.Payload, earlier)
		}
	}
}

// TestSingleOpRefusalIsSealed: an op the enclave refuses once its control
// is open — a server-encrypted put carrying an earlier put's payload, a
// read-through of a value-log record whose bytes were flipped on disk —
// gets its sealed per-op status as a single op too. With a 2 s Timeout each
// returns a typed error at once, not ErrUnconfirmed (nothing was applied),
// and a Get afterwards returns the last acked value.
func TestSingleOpRefusalIsSealed(t *testing.T) {
	timeout := func(cfg *ClientConfig) { cfg.Timeout = 2 * time.Second }
	refused := func(t *testing.T, what string, op func() error) {
		t.Helper()
		start := time.Now()
		err := op()
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("%s took %v: it waited on its Timeout", what, took)
		}
		if !errors.Is(err, ErrBadResponse) || errors.Is(err, ErrUnconfirmed) {
			t.Errorf("%s: %v, want a sealed refusal that is not unconfirmed", what, err)
		}
	}
	holds := func(t *testing.T, c *Client, want []byte) {
		t.Helper()
		if got, err := c.Get("k"); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(k) = %q, %v; want the last acked value %q", got, err, want)
		}
	}

	t.Run("server-enc put carrying a replayed segment", func(t *testing.T) {
		tc := newCluster(t, ServerConfig{ServerEncryption: true})
		c := tc.connect(timeout)
		host := hostRings(t, tc)
		host(replaySegment(c))
		mustPut(t, c, "k", []byte("acked"))
		refused(t, "put", func() error { return c.Put("k", []byte("later")) })
		host(nil)
		holds(t, c, []byte("acked"))
	})

	t.Run("vlog read-through of a flipped record", func(t *testing.T) {
		h := newVlogHarness(t, 5, func(cfg *ServerConfig) { cfg.Vlog.InlineMax = 1 })
		c := h.boot().connect(timeout)
		acked := bytes.Repeat([]byte("v"), 300)
		mustPut(t, c, "k", acked)
		seg, err := h.fs.OpenWrite("/data/vlog/seg-00000001.vlog")
		if err != nil {
			t.Fatal(err)
		}
		size, err := seg.Size()
		if err != nil {
			t.Fatal(err)
		}
		// The segment's last byte is the record's: flipping it breaks the
		// record's checksum.
		last := make([]byte, 1)
		flip := func() {
			if _, err := seg.ReadAt(last, size-1); err != nil {
				t.Fatal(err)
			}
			last[0] ^= 0xff
			if _, err := seg.WriteAt(last, size-1); err != nil {
				t.Fatal(err)
			}
		}
		flip()
		refused(t, "get", func() error { _, err := c.Get("k"); return err })
		flip()
		holds(t, c, acked)
	})
}

// TestPlacementMismatchIsRefused: the placement rides in the welcome, which
// the host can rewrite. A client made to believe the other payload
// placement gets a sealed refusal each way, in a batch and as a single op,
// and the server stores nothing. A flipped inline bound is as harmless: a
// client told to inline by a server without the mode has those puts
// refused, one told not to by a server with it makes ordinary puts, and no
// inline entry appears on a server without the mode.
func TestPlacementMismatchIsRefused(t *testing.T) {
	for _, p := range placements {
		t.Run(p.name, func(t *testing.T) {
			tc := newCluster(t, p.cfg)
			mustPut(t, tc.connect(), "k", []byte("stored by a client of the server's placement"))
			c := rewrittenWelcome(t, tc, func(w *welcomeMsg) { w.ServerEncryption = !w.ServerEncryption })
			if c.serverEnc == p.cfg.ServerEncryption {
				t.Fatal("the rewritten welcome did not reach the client")
			}

			res, err := c.Batch([]BatchOp{{Kind: BatchPut, Key: "m", Value: []byte("v")}})
			if err != nil || !errors.Is(res[0].Err, ErrBadResponse) {
				t.Errorf("batched put: %v, %v; want a sealed refusal", res, err)
			}
			if err := c.Put("m", []byte("v")); !errors.Is(err, ErrBadResponse) {
				t.Errorf("put: %v, want ErrBadResponse", err)
			}
			if got, err := c.Get("k"); !errors.Is(err, ErrBadResponse) || got != nil {
				t.Errorf("get: %q, %v; want ErrBadResponse", got, err)
			}
			if st := tc.server.Stats(); st.Entries != 1 {
				t.Errorf("server holds %d entries, want only the one its own placement stored", st.Entries)
			}
		})
	}
	for _, mode := range []bool{false, true} {
		t.Run(fmt.Sprintf("inline mode %v, bound flipped", mode), func(t *testing.T) {
			tc := newCluster(t, ServerConfig{InlineSmallValues: mode})
			c := rewrittenWelcome(t, tc, func(w *welcomeMsg) { w.InlineMax = DefaultInlineMax - w.InlineMax })
			if (c.inlineMax > 0) == mode {
				t.Fatal("the rewritten welcome did not reach the client")
			}
			value := []byte("small")
			err := c.Put("m", value)
			res, berr := c.Batch([]BatchOp{{Kind: BatchPut, Key: "b", Value: value}})
			if !mode {
				if !errors.Is(err, ErrBadResponse) || berr != nil || !errors.Is(res[0].Err, ErrBadResponse) {
					t.Errorf("inline puts to a server without the mode: %v and %v, %v; want sealed refusals", err, res, berr)
				}
			} else {
				if err != nil || berr != nil || res[0].Err != nil {
					t.Fatalf("ordinary puts to an inline server: %v and %v, %v", err, res, berr)
				}
				if got, err := c.Get("m"); err != nil || !bytes.Equal(got, value) {
					t.Errorf("Get = %q, %v", got, err)
				}
			}
			tc.server.table.Range(func(key string, b baseEntry, rec uint32) bool {
				e := tc.server.table.load(b, rec)
				if e.inline != nil {
					t.Errorf("%s is enclave-inline, want every value in the pool", key)
				}
				return true
			})
		})
	}
}

// rewrittenWelcome connects a client whose welcome the host rewrote with
// rewrite on the way.
func rewrittenWelcome(t *testing.T, tc *testCluster, rewrite func(*welcomeMsg)) *Client {
	t.Helper()
	tc.fabric.SetFaultHook(func(op rdma.OpType, data []byte) ([]byte, bool) {
		var w welcomeMsg
		if op != rdma.OpSend || json.Unmarshal(data, &w) != nil || w.ClientID == 0 {
			return data, false
		}
		rewrite(&w)
		out, err := json.Marshal(&w)
		if err != nil {
			return data, false
		}
		return out, false
	})
	defer tc.fabric.SetFaultHook(nil)
	return tc.connect(func(cfg *ClientConfig) { cfg.Timeout = 300 * time.Millisecond })
}

// TestInlinePlacementIsEnforced: the §5.2 inline placement is the server's.
// With the mode on, a client that sets nothing stores a small value inside
// the enclave. An inline put the mode does not allow — the mode off, or a
// value of DefaultInlineMax bytes or more — is refused under seal, as a
// single op and in a batch: nothing is stored and no enclave memory is
// taken. The refused clients announce a raised bound to themselves, as a
// host that rewrote the welcome or a modified client would.
func TestInlinePlacementIsEnforced(t *testing.T) {
	t.Run("mode on, a default client", func(t *testing.T) {
		tc := newCluster(t, ServerConfig{InlineSmallValues: true})
		c := tc.connect()
		small := []byte("shorter than the bound")
		mustPut(t, c, "small", small)
		if e, ok := tc.server.table.Get("small"); !ok || e.inline == nil || !bytes.Equal(e.inline.Data, small) {
			t.Errorf("the small value is not enclave-inline (entry present %v)", ok)
		}
		if st := tc.server.Stats(); st.PoolBytesRequested != 0 {
			t.Errorf("the untrusted pool holds %d B, want the value in the enclave only", st.PoolBytesRequested)
		}
		if got, err := c.Get("small"); err != nil || !bytes.Equal(got, small) {
			t.Errorf("Get = %q, %v", got, err)
		}
	})
	for _, m := range []struct {
		name string
		cfg  ServerConfig
		n    int
	}{
		{"mode off, a small value", ServerConfig{}, 8},
		{"mode off, 4000 B", ServerConfig{}, 4000},
		{"mode on, at the bound", ServerConfig{InlineSmallValues: true}, DefaultInlineMax},
		{"mode on, 4000 B", ServerConfig{InlineSmallValues: true}, 4000},
	} {
		t.Run(m.name, func(t *testing.T) {
			tc := newCluster(t, m.cfg)
			c := tc.connect(func(cfg *ClientConfig) { cfg.Timeout = 2 * time.Second })
			c.inlineMax = 32 << 10
			value := bytes.Repeat([]byte{'i'}, m.n)
			// A trusted thread's first frame reserves its staging page: one
			// get goes first, so what follows counts the puts alone.
			if _, err := c.Get("k"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get of an empty store: %v", err)
			}
			before := tc.server.Stats()
			if err := c.Put("k", value); !errors.Is(err, ErrBadResponse) || errors.Is(err, ErrUnconfirmed) {
				t.Errorf("inline put: %v, want a sealed refusal that is not unconfirmed", err)
			}
			res, err := c.Batch([]BatchOp{{Kind: BatchPut, Key: "k", Value: value}})
			if err != nil || !errors.Is(res[0].Err, ErrBadResponse) {
				t.Errorf("batched inline put: %v, %v; want a sealed refusal", res, err)
			}
			after := tc.server.Stats()
			if after.Entries != 0 || after.PoolBytesRequested != 0 {
				t.Errorf("server holds %d entries and %d pool bytes, want nothing stored", after.Entries, after.PoolBytesRequested)
			}
			if after.Enclave.EPCPages != before.Enclave.EPCPages || after.Enclave.HeapBytes != before.Enclave.HeapBytes {
				t.Errorf("enclave went from %d pages / %d heap bytes to %d / %d, want it unchanged",
					before.Enclave.EPCPages, before.Enclave.HeapBytes, after.Enclave.EPCPages, after.Enclave.HeapBytes)
			}
			if got := after.BadRequests - before.BadRequests; got != 2 {
				t.Errorf("%d bad requests counted, want 2", got)
			}
		})
	}
}

// TestServerEncStorageTamperDetected: under server encryption the enclave
// verifies what it stored. A flipped byte in the stored blob, or an older
// blob of the same key put back in its slot, ends a Get in a typed error —
// a single op and a batched one alike are refused in their sealed result —
// counted in AuthFailures, never a wrong value.
func TestServerEncStorageTamperDetected(t *testing.T) {
	tc := newCluster(t, ServerConfig{ServerEncryption: true})
	c := tc.connect(func(cfg *ClientConfig) { cfg.Timeout = 300 * time.Millisecond })
	// slot aliases the pool memory holding key's blob: writing it is the attack.
	slot := func(key string) []byte {
		e, ok := tc.server.table.Get(key)
		if !ok {
			t.Fatalf("no entry for %s", key)
		}
		b, err := tc.server.pool.Read(e.ref)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	refused := func(attack string) {
		t.Helper()
		before := tc.server.Stats().AuthFailures
		if got, err := c.Get("k"); !errors.Is(err, ErrBadResponse) || got != nil {
			t.Errorf("%s: Get = %q, %v; want a sealed refusal", attack, got, err)
		}
		res, err := c.Batch([]BatchOp{{Kind: BatchGet, Key: "k"}})
		if err != nil || !errors.Is(res[0].Err, ErrBadResponse) || res[0].Value != nil {
			t.Errorf("%s: batched get = %v, %v; want a sealed refusal", attack, res, err)
		}
		if tc.server.Stats().AuthFailures == before {
			t.Errorf("%s: the enclave counted no authentication failure", attack)
		}
	}

	mustPut(t, c, "k", []byte("version one"))
	older := append([]byte(nil), slot("k")...)
	mustPut(t, c, "k", []byte("version two"))
	current := append([]byte(nil), slot("k")...)

	slot("k")[len(current)/2] ^= 0x01
	refused("a flipped byte")
	copy(slot("k"), older)
	refused("an older blob of the key")
	copy(slot("k"), current)
	if got, err := c.Get("k"); err != nil || string(got) != "version two" {
		t.Errorf("restored blob: %q, %v", got, err)
	}
}

// TestEnclaveCryptoBytesExact: what EnclaveCryptoBytes counts for one put
// and one get of n bytes. Both placements count the op's sealed request
// and reply control, a frame of one each way; server encryption adds its
// two passes over the sealed value, n + SealOverhead each. The control
// sizes come from the codecs.
// Neither placement enters the enclave per op: the ecall count stays put.
func TestEnclaveCryptoBytesExact(t *testing.T) {
	sealed := func(n int) int { return n + cryptox.SealOverhead }
	for _, p := range placements {
		t.Run(p.name, func(t *testing.T) {
			tc := newCluster(t, p.cfg)
			c := tc.connect()
			var opKey []byte // travels in the put's request and the get's reply
			if !p.cfg.ServerEncryption {
				opKey = make([]byte, wire.OpKeySize)
			}
			replyCtl := func(k []byte) int {
				b, err := wire.AppendBatchReply(nil, &wire.BatchReply{Results: []wire.BatchOpResult{{OpKey: k}}})
				if err != nil {
					t.Fatal(err)
				}
				return sealed(len(b))
			}
			for _, n := range []int{0, 32, 1024, 16000} {
				key := fmt.Sprintf("k%d", n)
				requestCtl := func(op wire.Opcode, k []byte) int {
					b, err := wire.AppendBatchControl(nil, &wire.BatchControl{Ops: []wire.BatchOp{{Op: op, Key: []byte(key), OpKey: k}}})
					if err != nil {
						t.Fatal(err)
					}
					return sealed(len(b))
				}
				passes := 0
				if p.cfg.ServerEncryption {
					passes = 2 * sealed(n)
				}
				count := func(what string, want int, op func() error) {
					before := tc.server.Stats()
					if err := op(); err != nil {
						t.Fatalf("%s of %d B: %v", what, n, err)
					}
					after := tc.server.Stats()
					if got := int(after.EnclaveCryptoBytes - before.EnclaveCryptoBytes); got != want {
						t.Errorf("%s of %d B: %d enclave crypto bytes, want %d", what, n, got, want)
					}
					if after.Enclave.Ecalls != before.Enclave.Ecalls {
						t.Errorf("%s of %d B entered the enclave", what, n)
					}
				}
				value := bytes.Repeat([]byte{byte(n)}, n)
				count("put", requestCtl(wire.OpPut, opKey)+replyCtl(nil)+passes, func() error { return c.Put(key, value) })
				count("get", requestCtl(wire.OpGet, nil)+replyCtl(opKey)+passes, func() error {
					got, err := c.Get(key)
					if err == nil && !bytes.Equal(got, value) {
						err = errors.New("wrong value")
					}
					return err
				})
			}
		})
	}
}
