package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"precursor/internal/rdma"
	"precursor/internal/sgx"
	"precursor/internal/wire"
)

// TestUntrustedMemoryTamperDetected: an adversary with full access to the
// server's untrusted memory (the threat model's rogue administrator)
// flips bits in the stored payload pool; the client-side MAC verification
// must catch every mutation.
func TestUntrustedMemoryTamperDetected(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	if err := c.Put("k", []byte("authentic value")); err != nil {
		t.Fatal(err)
	}

	// Reach into the untrusted pool and corrupt the stored ciphertext.
	tampered := false
	tc.server.table.Range(func(key string, b baseEntry, rec uint32) bool {
		e := tc.server.table.load(b, rec)
		stored, err := tc.server.pool.Read(e.ref)
		if err != nil {
			t.Errorf("pool read: %v", err)
			return false
		}
		stored[0] ^= 0xff // Read aliases pool memory: this is the attack
		tampered = true
		return false
	})
	if !tampered {
		t.Fatal("no entry found to tamper with")
	}

	if _, err := c.Get("k"); !errors.Is(err, ErrIntegrity) {
		t.Errorf("tampered get: %v, want ErrIntegrity", err)
	}
}

// TestStoredMACTamperDetected corrupts the MAC instead of the ciphertext.
func TestStoredMACTamperDetected(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	if err := c.Put("k", []byte("authentic value")); err != nil {
		t.Fatal(err)
	}
	tc.server.table.Range(func(key string, b baseEntry, rec uint32) bool {
		e := tc.server.table.load(b, rec)
		stored, err := tc.server.pool.Read(e.ref)
		if err != nil {
			return false
		}
		stored[len(stored)-1] ^= 0x01 // last byte of the trailing MAC
		return false
	})
	if _, err := c.Get("k"); !errors.Is(err, ErrIntegrity) {
		t.Errorf("tampered get: %v, want ErrIntegrity", err)
	}
}

// TestHardenedModeSurvivesPoolMACSubstitution: in hardened mode the MAC
// lives in the enclave, so even replacing the *entire* pool slot with a
// consistent ciphertext+MAC pair under a known old key fails — the
// scenario §3.9 describes for excluded clients.
func TestHardenedModeDetectsSubstitution(t *testing.T) {
	tc := newCluster(t, ServerConfig{HardenedMACs: true})
	c := tc.connect()
	if err := c.Put("k", []byte("current value")); err != nil {
		t.Fatal(err)
	}
	// The attacker overwrites the pool ciphertext wholesale (it cannot
	// update the in-enclave MAC).
	tc.server.table.Range(func(key string, b baseEntry, rec uint32) bool {
		e := tc.server.table.load(b, rec)
		stored, err := tc.server.pool.Read(e.ref)
		if err != nil {
			return false
		}
		for i := range stored {
			stored[i] = byte(i)
		}
		return false
	})
	if _, err := c.Get("k"); !errors.Is(err, ErrIntegrity) {
		t.Errorf("substituted get: %v, want ErrIntegrity", err)
	}
}

// sealFrame builds the request frame c would send for ops under oid: the
// control sealed under the session key, no payload.
func sealFrame(t *testing.T, c *Client, oid uint64, ops ...wire.BatchOp) []byte {
	t.Helper()
	pt, err := wire.AppendBatchControl(nil, &wire.BatchControl{Oid: oid, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := c.aead.Seal(pt, c.ad[:])
	if err != nil {
		t.Fatal(err)
	}
	frame, err := (&wire.BatchRequest{ClientID: c.id, Count: len(ops), SealedControl: sealed}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// inject writes frame into c's request ring behind the client's back: the
// network adversary's hand on the wire.
func inject(t *testing.T, c *Client, frame []byte) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.reqWriter.WriteDeadline(frame, time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
}

// awaitStat polls the server's stats until counter reads above zero.
func awaitStat(t *testing.T, s *Server, what string, counter func(ServerStats) uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); counter(s.Stats()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never counted", what)
		}
	}
}

// TestReplayedRequestRejected re-posts a captured request frame into the
// server's ring; the enclave's oid check must reject it (Algorithm 2), in
// both payload placements.
func TestReplayedRequestRejected(t *testing.T) {
	for _, p := range placements {
		t.Run(p.name, func(t *testing.T) {
			tc := newCluster(t, p.cfg)
			c := tc.connect()

			if err := c.Put("k", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			// Simulate the network adversary replaying the last message: a
			// frame of one under the oid the client already used, written
			// through the client's own writer.
			c.mu.Lock()
			oid := c.oid // already consumed by the server
			c.mu.Unlock()
			inject(t, c, sealFrame(t, c, oid, wire.BatchOp{Op: wire.OpGet, Key: []byte("k")}))
			awaitStat(t, tc.server, "replay", func(st ServerStats) uint64 { return st.Replays })
			// The legitimate session continues to work afterwards.
			if err := c.Put("k2", []byte("v2")); err != nil {
				t.Errorf("post-replay put: %v", err)
			}
			if got, err := c.Get("k"); err != nil || string(got) != "v1" {
				t.Errorf("post-replay get: %q %v", got, err)
			}
		})
	}
}

// TestForgedControlDataRejected writes a request with garbage control data
// into the ring; the enclave's auth-decrypt must fail and count it.
func TestForgedControlDataRejected(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	frame, err := (&wire.BatchRequest{ClientID: c.id, Count: 1, SealedControl: bytes.Repeat([]byte{0x42}, 64)}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	inject(t, c, frame)
	awaitStat(t, tc.server, "forged control data", func(st ServerStats) uint64 { return st.AuthFailures })
}

// TestRetiredSingleOpFrameRefused: the single-op request frame is retired
// (PROTOCOL.md §3). One built with wire.Request — opcode DELETE, its
// control sealed under the session key and carrying the session's next oid
// — is refused as an unauthenticated BAD_REQUEST: nothing is applied, no
// oid is burned, and the session keeps serving.
func TestRetiredSingleOpFrameRefused(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	mustPut(t, c, "k", []byte("kept"))
	c.mu.Lock()
	next := c.oid + 1
	c.mu.Unlock()
	pt, err := (&wire.RequestControl{Op: wire.OpDelete, Oid: next, Key: []byte("k")}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := c.aead.Seal(pt, c.ad[:])
	if err != nil {
		t.Fatal(err)
	}
	frame, err := (&wire.Request{Op: wire.OpDelete, ClientID: c.id, SealedControl: sealed}).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	before := tc.server.Stats()
	inject(t, c, frame)
	awaitStat(t, tc.server, "bad request", func(st ServerStats) uint64 { return st.BadRequests - before.BadRequests })
	// The Get goes out under the very oid the retired frame carried: it is
	// served, so that oid was not burned, and the delete did not apply.
	if got, err := c.Get("k"); err != nil || string(got) != "kept" {
		t.Fatalf("Get after the retired frame: %q, %v", got, err)
	}
	if c.LastOid() != next {
		t.Fatalf("the Get went out under oid %d, want %d", c.LastOid(), next)
	}
	st := tc.server.Stats()
	if st.Replays != 0 || st.AuthFailures != 0 || st.Deletes != 0 {
		t.Errorf("replays %d, auth failures %d, deletes %d; want none", st.Replays, st.AuthFailures, st.Deletes)
	}
	if n := c.StatsStruct().UnauthStatuses; n != 1 {
		t.Errorf("client saw %d unauthenticated status frames, want the one refusal", n)
	}
}

// TestRogueClientGarbageFrame writes raw garbage directly into the ring
// memory (a flow-control-violating client, §3.9); the server must not
// crash and must keep serving others.
func TestRogueClientGarbageFrame(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	rogue := tc.connect()
	honest := tc.connect()

	// The rogue writes a syntactically valid ring frame whose content is
	// garbage, bypassing its own protocol stack.
	rogue.mu.Lock()
	err := rogue.reqWriter.WriteDeadline([]byte{0x01, 0x02, 0x03}, time.Now().Add(time.Second))
	rogue.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	// Honest client is unaffected.
	if err := honest.Put("h", []byte("honest value")); err != nil {
		t.Fatalf("honest put: %v", err)
	}
	got, err := honest.Get("h")
	if err != nil || string(got) != "honest value" {
		t.Errorf("honest get: %q %v", got, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tc.server.Stats().BadRequests == 0 {
		if time.Now().After(deadline) {
			t.Fatal("garbage frame not counted")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSlotRewrittenWhileCopiedIsRefused: a peer holding the request ring's
// rkey keeps rewriting message bytes of every slot with one-sided writes
// while the client's gets go through. Registered memory takes no lock, so
// the trusted thread may copy a slot out while a rewrite lands in it. What
// it copied is verified before a byte of it is trusted: a rewritten or torn
// request fails the control AEAD, is counted as a bad request, and the
// client sees a typed error — a get never returns a wrong value.
func TestSlotRewrittenWhileCopiedIsRefused(t *testing.T) {
	tc := newCluster(t, ServerConfig{Workers: 1})
	c := tc.connect(func(cfg *ClientConfig) { cfg.Timeout = 20 * time.Millisecond })
	const keys = 8
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	tc.server.mu.Lock()
	ring := tc.server.sessions[c.ID()].reqRing
	tc.server.mu.Unlock()
	peerDev, err := tc.fabric.NewDevice("peer")
	if err != nil {
		t.Fatal(err)
	}
	peer, _ := tc.fabric.ConnectRC(peerDev, tc.srvDev)

	// Offsets 5 to 36 of a slot are message bytes of every request frame
	// (a get's frame is longer than that): the framing stays intact, so
	// only the enclave's checks can tell.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var b [1]byte
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for slot := 0; slot < DefaultRingSlots; slot++ {
				b[0] = byte(i*31 + uint64(slot))
				off := uint64(slot*DefaultSlotSize) + 5 + i%32
				if err := peer.PostWrite(i, ring.RKey(), off, b[:], false); err != nil {
					t.Errorf("peer write: %v", err)
					return
				}
			}
			time.Sleep(10 * time.Microsecond)
		}
	}()

	deadline := time.Now().Add(30 * time.Second)
	gets, failed := 0, 0
	for tc.server.Stats().BadRequests < 5 || gets < 200 {
		if time.Now().After(deadline) {
			t.Fatalf("%d gets, %d bad requests by the deadline", gets, tc.server.Stats().BadRequests)
		}
		i := gets % keys
		got, err := c.Get(fmt.Sprintf("key-%d", i))
		gets++
		switch {
		case err == nil:
			if want := fmt.Sprintf("value-%d", i); string(got) != want {
				t.Fatalf("get returned %q, want %q", got, want)
			}
		case errors.Is(err, ErrTimeout) || errors.Is(err, ErrBadResponse):
			failed++
		default:
			t.Fatalf("get failed with an untyped error: %v", err)
		}
	}
	close(stop)
	<-done
	t.Logf("%d gets, %d failed with a typed error; %d bad requests counted", gets, failed, tc.server.Stats().BadRequests)
}

// TestRevocationCutsAccess: after RevokeClient, the client's QP is in the
// error state and no further operations reach the store.
func TestRevocationCutsAccess(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	victim := tc.connect()
	other := tc.connect()

	if err := victim.Put("v", []byte("pre-revocation")); err != nil {
		t.Fatal(err)
	}
	if !tc.server.RevokeClient(victim.ID()) {
		t.Fatal("RevokeClient returned false")
	}
	if tc.server.RevokeClient(victim.ID()) {
		t.Error("double revocation returned true")
	}
	if err := victim.Put("v2", []byte("post-revocation")); err == nil {
		t.Error("revoked client still writes")
	}
	// Other clients unaffected; revoked client's data remains readable.
	if got, err := other.Get("v"); err != nil || string(got) != "pre-revocation" {
		t.Errorf("other.Get: %q %v", got, err)
	}
}

// TestResponseForgeryDetected: an attacker rewriting responses in flight
// (fault-injection hook) cannot make the client accept modified data.
func TestResponseForgeryDetected(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	if err := c.Put("k", []byte("true value")); err != nil {
		t.Fatal(err)
	}
	// Corrupt every subsequent WRITE payload byte 8 (inside either the
	// sealed control or the payload region of responses).
	tc.fabric.SetFaultHook(func(op rdma.OpType, data []byte) ([]byte, bool) {
		if len(data) > 30 { // skip credit updates (small) — hit responses
			mut := append([]byte(nil), data...)
			mut[len(mut)/2] ^= 0x80
			return mut, false
		}
		return data, false
	})
	defer tc.fabric.SetFaultHook(nil)

	_, err := c.Get("k")
	if err == nil {
		t.Error("client accepted a forged response")
	}
	switch {
	case errors.Is(err, ErrIntegrity), errors.Is(err, ErrAuth),
		errors.Is(err, ErrBadResponse), errors.Is(err, ErrTimeout),
		errors.Is(err, ErrClosed):
		// All acceptable failure modes: detection, or the poisoned frame
		// never parsed.
	default:
		t.Errorf("unexpected error class: %v", err)
	}
}

// TestWrongMeasurementRefusesConnection: a client expecting a different
// enclave build must abort during attestation and never provision keys.
func TestWrongMeasurementRefusesConnection(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	dev, err := tc.fabric.NewDevice("suspicious-client")
	if err != nil {
		t.Fatal(err)
	}
	cliQP, srvQP := tc.fabric.ConnectRC(dev, tc.srvDev)
	go func() { _, _ = tc.server.HandleConnection(srvQP) }()

	var wrong sgx.Measurement
	wrong[0] = 0xFF
	_, err = Connect(ClientConfig{
		Conn: cliQP, Device: dev,
		PlatformKey: tc.platform.AttestationPublicKey(),
		Measurement: wrong,
	})
	if !errors.Is(err, sgx.ErrMeasurement) {
		t.Errorf("got %v, want sgx.ErrMeasurement", err)
	}
}

// TestOidsStrictlyIncrease: the client's own oid sequence is strictly
// monotonic across operation types, the invariant replay detection needs.
func TestOidsStrictlyIncrease(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	var last uint64
	for i := 0; i < 20; i++ {
		switch i % 3 {
		case 0:
			_ = c.Put("k", []byte("v"))
		case 1:
			_, _ = c.Get("k")
		case 2:
			_ = c.Delete("nonexistent")
		}
		c.mu.Lock()
		oid := c.oid
		c.mu.Unlock()
		if oid <= last {
			t.Fatalf("oid did not increase: %d -> %d", last, oid)
		}
		last = oid
	}
}

// TestEnclaveDestroyedMidFlight: the OS may kill the enclave at any time
// (availability is out of scope); clients must fail cleanly, not hang.
func TestEnclaveDestroyedMidFlight(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	tc.server.Close() // destroys the enclave and stops workers
	c.cfg.Timeout = 200 * time.Millisecond
	if err := c.Put("k2", []byte("v2")); err == nil {
		t.Error("put succeeded after enclave destruction")
	}
}
