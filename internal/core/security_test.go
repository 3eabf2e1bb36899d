package core

import (
	"bytes"
	"errors"
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
	tc.server.table.Range(func(key string, e *entry) bool {
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
	tc.server.table.Range(func(key string, e *entry) bool {
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
	tc.server.table.Range(func(key string, e *entry) bool {
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
			// Capture a fresh frame by re-encoding a put with the *same* oid the
			// client already used: simulate the network adversary replaying the
			// last message. We reach into the client to rebuild an identical
			// request (same oid), then write it through the client's own writer.
			c.mu.Lock()
			oid := c.oid // already consumed by the server
			ctl := wire.RequestControl{Op: wire.OpGet, Oid: oid, Key: []byte("k")}
			pt, err := ctl.Encode()
			if err != nil {
				c.mu.Unlock()
				t.Fatal(err)
			}
			sealed, err := c.aead.Seal(pt, c.ad[:])
			if err != nil {
				c.mu.Unlock()
				t.Fatal(err)
			}
			req := wire.Request{Op: wire.OpGet, ClientID: c.id, SealedControl: sealed}
			frame, err := req.Encode(nil)
			if err != nil {
				c.mu.Unlock()
				t.Fatal(err)
			}
			if err := c.reqWriter.WriteDeadline(frame, time.Now().Add(time.Second)); err != nil {
				c.mu.Unlock()
				t.Fatal(err)
			}
			c.mu.Unlock()

			deadline := time.Now().Add(5 * time.Second)
			for tc.server.Stats().Replays == 0 {
				if time.Now().After(deadline) {
					t.Fatal("replay not detected")
				}
				time.Sleep(time.Millisecond)
			}
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

	c.mu.Lock()
	req := wire.Request{Op: wire.OpGet, ClientID: c.id, SealedControl: bytes.Repeat([]byte{0x42}, 64)}
	frame, err := req.Encode(nil)
	if err != nil {
		c.mu.Unlock()
		t.Fatal(err)
	}
	err = c.reqWriter.WriteDeadline(frame, time.Now().Add(time.Second))
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for tc.server.Stats().AuthFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatal("forged control data not counted")
		}
		time.Sleep(time.Millisecond)
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
