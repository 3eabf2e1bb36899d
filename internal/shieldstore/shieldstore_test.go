package shieldstore

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"precursor/internal/sgx"
)

func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *sgx.Platform) {
	t.Helper()
	platform, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Platform = platform
	if cfg.Buckets == 0 {
		cfg.Buckets = 64 // small for tests; Table 1 uses the default
	}
	if !cfg.CacheBucketHashes {
		// tests choose explicitly; default on unless stated
		cfg.CacheBucketHashes = true
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, platform
}

func connectClient(t *testing.T, srv *Server, platform *sgx.Platform) *Client {
	t.Helper()
	ct, st := NewPipe()
	go func() { _ = srv.Serve(st) }()
	c, err := Connect(ct, platform.AttestationPublicKey(), srv.Measurement())
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestRoundTrip(t *testing.T) {
	srv, platform := newTestServer(t, ServerConfig{})
	c := connectClient(t, srv, platform)

	value := []byte("merkle protected value")
	if err := c.Put("k", value); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := c.Get("k")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, value) {
		t.Errorf("got %q", got)
	}
	if err := c.Delete("k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("after delete: %v", err)
	}
}

func TestManyKeysCollidingBuckets(t *testing.T) {
	srv, platform := newTestServer(t, ServerConfig{Buckets: 8})
	c := connectClient(t, srv, platform)
	const n = 200 // 25 entries per bucket on average
	for i := 0; i < n; i++ {
		if err := c.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := c.Get(fmt.Sprintf("key-%d", i))
		if err != nil || string(got) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("get %d: %q %v", i, got, err)
		}
	}
	st := srv.Stats()
	if st.Entries != n {
		t.Errorf("entries = %d", st.Entries)
	}
	// Bucket scans must have decrypted many more entries than ops — the
	// cost the paper attributes to ShieldStore's design.
	if st.BucketEntriesScanned < uint64(n) {
		t.Errorf("scanned = %d", st.BucketEntriesScanned)
	}
}

func TestUpdateInPlace(t *testing.T) {
	srv, platform := newTestServer(t, ServerConfig{})
	c := connectClient(t, srv, platform)
	if err := c.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("k")
	if err != nil || string(got) != "v2" {
		t.Fatalf("%q %v", got, err)
	}
	if st := srv.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d", st.Entries)
	}
}

// TestMerkleDetectsEntryTamper: corrupting a stored entry makes the next
// access to its bucket fail integrity server-side.
func TestMerkleDetectsEntryTamper(t *testing.T) {
	srv, platform := newTestServer(t, ServerConfig{})
	c := connectClient(t, srv, platform)
	if err := c.Put("k", []byte("value")); err != nil {
		t.Fatal(err)
	}
	if !srv.CorruptEntry() {
		t.Fatal("nothing to corrupt")
	}
	// The GCM open of the scanned entry fails, so the key is simply not
	// found by the scan — but the MAC list still matches the tree, so the
	// verdict may be not-found. Corrupting the MAC is the stronger test:
	if _, err := c.Get("k"); err == nil {
		t.Error("tampered entry served")
	}
}

func TestMerkleDetectsMACTamper(t *testing.T) {
	srv, platform := newTestServer(t, ServerConfig{})
	c := connectClient(t, srv, platform)
	if err := c.Put("k", []byte("value")); err != nil {
		t.Fatal(err)
	}
	if !srv.CorruptMAC() {
		t.Fatal("nothing to corrupt")
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrIntegrity) {
		t.Errorf("got %v, want ErrIntegrity", err)
	}
	if srv.Stats().IntegrityFailures == 0 {
		t.Error("integrity failure not counted")
	}
}

// TestNoHashCacheMode exercises the small-EPC / more-compute variant.
func TestNoHashCacheMode(t *testing.T) {
	platform, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Platform: platform, Buckets: 1024, CacheBucketHashes: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c := connectClient(t, srv, platform)

	for i := 0; i < 50; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for i := 0; i < 50; i++ {
		got, err := c.Get(fmt.Sprintf("k%d", i))
		if err != nil || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get: %q %v", got, err)
		}
	}
	// Tampering with the *untrusted* bucket-hash array is caught by the
	// in-enclave group hash.
	srv.untrustedHashes[0][0] ^= 0xff
	srv.buckets[0].mu.Lock()
	srv.buckets[0].entries = append(srv.buckets[0].entries, storedEntry{sealed: []byte{1, 2, 3}})
	srv.buckets[0].mu.Unlock()
	failures := srv.Stats().IntegrityFailures
	_, _ = c.Get("k0") // any op touching bucket 0's group re-verifies
	// Restore for cleanliness; assertion is on counter movement for
	// operations that hit bucket 0.
	var hit bool
	for i := 0; i < 50 && !hit; i++ {
		_, _ = c.Get(fmt.Sprintf("k%d", i))
		hit = srv.Stats().IntegrityFailures > failures
	}
	if !hit {
		t.Skip("no test key mapped to the corrupted bucket group; geometry-dependent")
	}
}

// TestEnclaveFootprintStatic: ShieldStore's EPC working set is big at
// startup and nearly flat as keys are inserted (Table 1's shape).
func TestEnclaveFootprintStatic(t *testing.T) {
	srv, platform := newTestServer(t, ServerConfig{Buckets: 4096})
	init := srv.Stats().Enclave.EPCPages
	wantInit := 4096*HashSize/4096 + 1008 // hash array + image
	if init < wantInit-2 || init > wantInit+8 {
		t.Errorf("initial pages = %d, want ≈%d", init, wantInit)
	}
	c := connectClient(t, srv, platform)
	for i := 0; i < 1000; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	after := srv.Stats().Enclave.EPCPages
	if after > init+16 {
		t.Errorf("working set grew %d -> %d; should be nearly static", init, after)
	}
}

func TestPerRequestEcalls(t *testing.T) {
	srv, platform := newTestServer(t, ServerConfig{})
	c := connectClient(t, srv, platform)
	base := srv.Stats().Enclave.Ecalls
	for i := 0; i < 50; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Unlike Precursor, ShieldStore pays one enclave transition per
	// request.
	if got := srv.Stats().Enclave.Ecalls - base; got < 50 {
		t.Errorf("ecalls for 50 requests = %d, want ≥ 50", got)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, platform := newTestServer(t, ServerConfig{Buckets: 128})
	const n = 6
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = connectClient(t, srv, platform)
	}
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(id int, c *Client) {
			defer wg.Done()
			for op := 0; op < 60; op++ {
				key := fmt.Sprintf("c%d-k%d", id, op%10)
				if err := c.Put(key, []byte(key)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				got, err := c.Get(key)
				if err != nil || string(got) != key {
					t.Errorf("get: %q %v", got, err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()

	// Concurrent puts MAC on copies of the one keyed CMAC: every stored tag
	// is the CMAC of its own sealed entry (and -race saw no write to it).
	for i := range srv.buckets {
		for _, e := range srv.buckets[i].entries {
			mac := *srv.mac
			_, _ = mac.Write(e.sealed)
			if !bytes.Equal(mac.Sum(nil), e.mac[:]) {
				t.Fatalf("bucket %d: stored tag is not the CMAC of its sealed entry", i)
			}
		}
	}
}

// TestOverTCP runs the handshake and operations across a real TCP socket.
func TestOverTCP(t *testing.T) {
	srv, platform := newTestServer(t, ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_ = srv.Serve(NewNetTransport(conn))
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(NewNetTransport(conn), platform.AttestationPublicKey(), srv.Measurement())
	if err != nil {
		t.Fatalf("Connect over TCP: %v", err)
	}
	defer c.Close()

	if err := c.Put("tcp-key", []byte("tcp-value")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := c.Get("tcp-key")
	if err != nil || string(got) != "tcp-value" {
		t.Errorf("Get: %q %v", got, err)
	}
}

func TestWrongMeasurementRejected(t *testing.T) {
	srv, platform := newTestServer(t, ServerConfig{})
	ct, st := NewPipe()
	go func() { _ = srv.Serve(st) }()
	var wrong sgx.Measurement
	wrong[3] = 0x7
	if _, err := Connect(ct, platform.AttestationPublicKey(), wrong); !errors.Is(err, sgx.ErrMeasurement) {
		t.Errorf("got %v", err)
	}
}
