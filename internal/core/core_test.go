package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"precursor/internal/rdma"
	"precursor/internal/sgx"
)

// placements are a server's two payload placements: Precursor's, and the
// §5.1 server-encryption baseline's.
var placements = []struct {
	name string
	cfg  ServerConfig
}{{"precursor", ServerConfig{}}, {"server-enc", ServerConfig{ServerEncryption: true}}}

// testCluster is a server plus helpers to attach clients over an
// in-process fabric.
type testCluster struct {
	t        testing.TB
	fabric   *rdma.Fabric
	platform *sgx.Platform
	server   *Server
	srvDev   *rdma.Device
	nDev     int
	// wrapSrv, when set, interposes on the server end of each connection
	// connect makes (the client end goes through ClientConfig.Conn).
	wrapSrv func(rdma.Conn) rdma.Conn
}

func newCluster(t testing.TB, cfg ServerConfig) *testCluster {
	t.Helper()
	platform, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Platform = platform
	fabric := rdma.NewFabric()
	srvDev, err := fabric.NewDevice("server")
	if err != nil {
		t.Fatal(err)
	}
	// Fast polling for tests.
	if cfg.PollInterval == 0 {
		cfg.PollInterval = time.Microsecond
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	server, err := NewServer(srvDev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	return &testCluster{t: t, fabric: fabric, platform: platform, server: server, srvDev: srvDev}
}

// connect attaches a new client, handling the server side concurrently.
func (tc *testCluster) connect(opts ...func(*ClientConfig)) *Client {
	tc.t.Helper()
	tc.nDev++
	dev, err := tc.fabric.NewDevice(fmt.Sprintf("client-%d", tc.nDev))
	if err != nil {
		tc.t.Fatal(err)
	}
	cliQP, srvQP := tc.fabric.ConnectRC(dev, tc.srvDev)
	var srv rdma.Conn = srvQP
	if tc.wrapSrv != nil {
		srv = tc.wrapSrv(srv)
	}

	done := make(chan error, 1)
	go func() {
		_, err := tc.server.HandleConnection(srv)
		done <- err
	}()
	cfg := ClientConfig{
		Conn: cliQP, Device: dev,
		PlatformKey: tc.platform.AttestationPublicKey(),
		Measurement: tc.server.Measurement(),
		Timeout:     10 * time.Second,
	}
	for _, o := range opts {
		o(&cfg)
	}
	client, err := Connect(cfg)
	if err != nil {
		tc.t.Fatalf("Connect: %v", err)
	}
	if err := <-done; err != nil {
		tc.t.Fatalf("HandleConnection: %v", err)
	}
	tc.t.Cleanup(func() { _ = client.Close() })
	return client
}

func TestPutGetDeleteRoundTrip(t *testing.T) {
	for _, p := range placements {
		t.Run(p.name, func(t *testing.T) {
			tc := newCluster(t, p.cfg)
			c := tc.connect()

			value := []byte("the quick brown fox")
			if err := c.Put("animal", value); err != nil {
				t.Fatalf("Put: %v", err)
			}
			got, err := c.Get("animal")
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !bytes.Equal(got, value) {
				t.Errorf("Get = %q, want %q", got, value)
			}
			if err := c.Delete("animal"); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, err := c.Get("animal"); !errors.Is(err, ErrNotFound) {
				t.Errorf("Get after delete: %v", err)
			}
			if err := c.Delete("animal"); !errors.Is(err, ErrNotFound) {
				t.Errorf("second Delete: %v", err)
			}
		})
	}
}

// TestGetMissingKey: a key never stored is not found by Get or Delete, and
// a refused Delete still counts as one.
func TestGetMissingKey(t *testing.T) {
	for _, p := range placements {
		t.Run(p.name, func(t *testing.T) {
			tc := newCluster(t, p.cfg)
			c := tc.connect()
			if _, err := c.Get("never-stored"); !errors.Is(err, ErrNotFound) {
				t.Errorf("got %v, want ErrNotFound", err)
			}
			if err := c.Delete("never-stored"); !errors.Is(err, ErrNotFound) {
				t.Errorf("Delete: %v, want ErrNotFound", err)
			}
			if err := c.Put("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := c.Delete("k"); err != nil {
				t.Fatal(err)
			}
			if st := tc.server.Stats(); st.Entries != 0 || st.Deletes != 2 {
				t.Errorf("entries=%d deletes=%d, want 0 and 2", st.Entries, st.Deletes)
			}
		})
	}
}

func TestUpdateReplacesValue(t *testing.T) {
	for _, p := range placements {
		t.Run(p.name, func(t *testing.T) {
			tc := newCluster(t, p.cfg)
			c := tc.connect()

			if err := c.Put("k", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if err := c.Put("k", []byte("v2-longer-value")); err != nil {
				t.Fatal(err)
			}
			got, err := c.Get("k")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "v2-longer-value" {
				t.Errorf("got %q", got)
			}
			// The old payload slot must have been freed (revocation support).
			st := tc.server.Stats()
			if st.Entries != 1 || st.Puts != 2 || st.Gets != 1 {
				t.Errorf("entries=%d puts=%d gets=%d, want 1, 2 and 1", st.Entries, st.Puts, st.Gets)
			}
		})
	}
}

func TestValueSizes(t *testing.T) {
	for _, p := range placements {
		t.Run(p.name, func(t *testing.T) {
			tc := newCluster(t, p.cfg)
			c := tc.connect()
			for _, size := range []int{0, 1, 16, 64, 512, 1024, 4096, 16384} {
				key := fmt.Sprintf("size-%d", size)
				value := bytes.Repeat([]byte{byte(size % 251)}, size)
				if err := c.Put(key, value); err != nil {
					t.Fatalf("Put %d: %v", size, err)
				}
				got, err := c.Get(key)
				if err != nil {
					t.Fatalf("Get %d: %v", size, err)
				}
				if !bytes.Equal(got, value) {
					t.Errorf("size %d round trip mismatch", size)
				}
			}
		})
	}
}

func TestManyKeysAndOverwrites(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	const n = 500
	for i := 0; i < n; i++ {
		if err := c.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("value-%03d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i += 3 {
		if err := c.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("updated-%03d", i))); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("value-%03d", i)
		if i%3 == 0 {
			want = fmt.Sprintf("updated-%03d", i)
		}
		got, err := c.Get(fmt.Sprintf("key-%03d", i))
		if err != nil || string(got) != want {
			t.Fatalf("get %d: %q, %v (want %q)", i, got, err, want)
		}
	}
	if st := tc.server.Stats(); st.Entries != n {
		t.Errorf("entries = %d, want %d", st.Entries, n)
	}
}

func TestMultipleClientsIsolatedSessions(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	a := tc.connect()
	b := tc.connect()

	if err := a.Put("shared", []byte("from-a")); err != nil {
		t.Fatal(err)
	}
	// Default policy: any authenticated client can read (multi-tenancy via
	// key knowledge); B fetches A's entry and the enclave hands it K_op.
	got, err := b.Get("shared")
	if err != nil {
		t.Fatalf("b.Get: %v", err)
	}
	if string(got) != "from-a" {
		t.Errorf("b got %q", got)
	}
	if a.ID() == b.ID() {
		t.Error("clients share an id")
	}
}

func TestOwnerOnlyAccessControl(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	tc.server.SetOwnerOnly(true)
	a := tc.connect()
	b := tc.connect()

	if err := a.Put("private", []byte("secret-of-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("private"); !errors.Is(err, ErrNotFound) {
		t.Errorf("b.Get on a's key: %v, want ErrNotFound", err)
	}
	if err := b.Delete("private"); !errors.Is(err, ErrNotFound) {
		t.Errorf("b.Delete on a's key: %v, want ErrNotFound", err)
	}
	if got, err := a.Get("private"); err != nil || string(got) != "secret-of-a" {
		t.Errorf("owner read: %q, %v", got, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	for _, p := range placements {
		t.Run(p.name, func(t *testing.T) {
			cfg := p.cfg
			cfg.Workers = 4
			tc := newCluster(t, cfg)
			const nClients = 8
			const nOps = 120

			clients := make([]*Client, nClients)
			for i := range clients {
				clients[i] = tc.connect()
			}
			var wg sync.WaitGroup
			for i, c := range clients {
				wg.Add(1)
				go func(id int, c *Client) {
					defer wg.Done()
					for op := 0; op < nOps; op++ {
						key := fmt.Sprintf("c%d-k%d", id, op%20)
						val := []byte(fmt.Sprintf("c%d-v%d", id, op))
						if err := c.Put(key, val); err != nil {
							t.Errorf("client %d put: %v", id, err)
							return
						}
						got, err := c.Get(key)
						if err != nil || !bytes.Equal(got, val) {
							t.Errorf("client %d get: %q %v", id, got, err)
							return
						}
					}
				}(i, c)
			}
			wg.Wait()
			st := tc.server.Stats()
			if st.Puts != nClients*nOps || st.Gets != nClients*nOps {
				t.Errorf("server counted %d puts / %d gets", st.Puts, st.Gets)
			}
			if st.Replays != 0 || st.AuthFailures != 0 {
				t.Errorf("unexpected security events: %+v", st)
			}
		})
	}
}

func TestHardenedMACMode(t *testing.T) {
	tc := newCluster(t, ServerConfig{HardenedMACs: true})
	c := tc.connect()
	value := []byte("protected against substitution")
	if err := c.Put("k", value); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("k")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, value) {
		t.Errorf("got %q", got)
	}
}

func TestInlineSmallValues(t *testing.T) {
	tc := newCluster(t, ServerConfig{InlineSmallValues: true})
	c := tc.connect()

	small := []byte("tiny") // < 56 B: stored in the enclave
	if err := c.Put("small", small); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{7}, 500) // ≥ 56 B: normal path
	if err := c.Put("big", big); err != nil {
		t.Fatal(err)
	}
	gotSmall, err := c.Get("small")
	if err != nil || !bytes.Equal(gotSmall, small) {
		t.Errorf("small: %q, %v", gotSmall, err)
	}
	gotBig, err := c.Get("big")
	if err != nil || !bytes.Equal(gotBig, big) {
		t.Errorf("big: %v, len %d", err, len(gotBig))
	}
	// Inline values consume no pool space.
	st := tc.server.Stats()
	if st.PoolBytesInUse <= 0 {
		t.Errorf("big value not in pool: %d", st.PoolBytesInUse)
	}
	// Overwriting an inline value with a big one frees the enclave region.
	if err := c.Put("small", big); err != nil {
		t.Fatal(err)
	}
	gotSmall, err = c.Get("small")
	if err != nil || !bytes.Equal(gotSmall, big) {
		t.Errorf("overwritten small: %v", err)
	}
}

func TestServerStatsAndEnclaveAccounting(t *testing.T) {
	for _, p := range placements {
		t.Run(p.name, func(t *testing.T) {
			tc := newCluster(t, p.cfg)
			c := tc.connect()
			for i := 0; i < 100; i++ {
				if err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			st := tc.server.Stats()
			if st.Entries != 100 || st.Clients != 1 {
				t.Errorf("entries=%d clients=%d", st.Entries, st.Clients)
			}
			if st.Enclave.Ecalls == 0 {
				t.Error("no ecalls recorded (init/start/add_client expected)")
			}
			// Critically, ecall count must NOT scale with request count: the
			// hot path is transition-free (R2), whichever side runs the
			// payload crypto.
			if st.Enclave.Ecalls > 20 {
				t.Errorf("ecalls = %d, hot path seems to transition", st.Enclave.Ecalls)
			}
			if st.PoolBytesReserved == 0 {
				t.Error("payload pool unused")
			}
			if st.Enclave.EPCPages == 0 {
				t.Error("no EPC pages accounted")
			}
		})
	}
}

func TestLargeValueRejected(t *testing.T) {
	for _, p := range placements {
		t.Run(p.name, func(t *testing.T) {
			tc := newCluster(t, p.cfg)
			c := tc.connect()
			// Larger than a ring slot: rejected client-side.
			if err := c.Put("k", make([]byte, 64*1024)); !errors.Is(err, ErrTooLarge) {
				t.Errorf("got %v", err)
			}
			if err := c.Put("", []byte("v")); !errors.Is(err, ErrTooLarge) {
				t.Errorf("empty key: %v", err)
			}
		})
	}
}

func TestClientCloseThenUse(t *testing.T) {
	for _, p := range placements {
		t.Run(p.name, func(t *testing.T) {
			tc := newCluster(t, p.cfg)
			c := tc.connect()
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if err := c.Put("k", []byte("v")); !errors.Is(err, ErrClosed) {
				t.Errorf("Put after close: %v", err)
			}
			if _, err := c.Get("k"); !errors.Is(err, ErrClosed) {
				t.Errorf("Get after close: %v", err)
			}
			if err := c.Delete("k"); !errors.Is(err, ErrClosed) {
				t.Errorf("Delete after close: %v", err)
			}
			if err := c.Close(); err != nil {
				t.Errorf("double close: %v", err)
			}
		})
	}
}
