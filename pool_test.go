package precursor_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"precursor"
	"precursor/internal/faultfab"
	"precursor/internal/overload"
)

func newPoolCluster(t *testing.T, size int, tune ...func(*precursor.DialConfig)) (*precursor.Pool, *precursor.Server) {
	t.Helper()
	platform, err := precursor.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := precursor.Serve("127.0.0.1:0", precursor.ServerConfig{
		Platform: platform, Workers: 2, PollInterval: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	cfg := precursor.DialConfig{
		PlatformKey: platform.AttestationPublicKey(),
		Measurement: svc.Server.Measurement(),
		Timeout:     10 * time.Second,
	}
	for _, f := range tune {
		f(&cfg)
	}
	pool, err := precursor.NewPool(svc.Addr(), cfg, size)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pool.Close() })
	return pool, svc.Server
}

// gateWire parks one client->server ring write — and with it the
// operation that borrowed the connection — until released.
type gateWire struct {
	precursor.Conn
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *gateWire) PostWrite(wrID uint64, rkey uint32, off uint64, data []byte, signaled bool) error {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.Conn.PostWrite(wrID, rkey, off, data, signaled)
}

// TestPoolCtxBoundsAcquireWait: a ctx with 20 ms of budget must not wait
// the pool's full acquire timeout (10 s here) for its one busy
// connection: it fails with ErrTimeout in well under 100 ms, and since it
// never borrowed a connection, nothing reached the server.
func TestPoolCtxBoundsAcquireWait(t *testing.T) {
	gate := &gateWire{entered: make(chan struct{}), release: make(chan struct{})}
	pool, server := newPoolCluster(t, 1, func(cfg *precursor.DialConfig) {
		cfg.WrapConn = func(c precursor.Conn) precursor.Conn { gate.Conn = c; return gate }
	})
	gate.armed.Store(true)
	busy := make(chan error, 1)
	go func() { busy <- pool.Put("busy", []byte("v")) }()
	<-gate.entered // the one connection is borrowed and parked mid-send
	before := server.Stats()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := pool.PutContext(ctx, "late", []byte("v"))
	if !errors.Is(err, precursor.ErrTimeout) || errors.Is(err, precursor.ErrUnconfirmed) {
		t.Errorf("put under a 20ms ctx on a busy pool: %v, want a plain ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("returned after %v, want < 100ms", elapsed)
	}
	if after := server.Stats(); after.Puts != before.Puts {
		t.Errorf("server puts %d -> %d: the refused op must not be sent", before.Puts, after.Puts)
	}
	close(gate.release)
	if err := <-busy; err != nil {
		t.Fatalf("the parked op: %v", err)
	}
	if _, err := pool.Get("late"); !errors.Is(err, precursor.ErrNotFound) {
		t.Errorf("get of the refused key: %v, want ErrNotFound", err)
	}
}

// TestPoolCtxStopsShedRetries: a shed whose backoff (a draining server
// hints 250 ms) would overrun the ctx is returned as it is, at once,
// instead of being slept on.
func TestPoolCtxStopsShedRetries(t *testing.T) {
	pool, server := newPoolCluster(t, 1)
	server.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := pool.PutContext(ctx, "k", []byte("v"))
	if !errors.Is(err, precursor.ErrRetryLater) {
		t.Errorf("put on a draining server: %v, want ErrRetryLater", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("returned after %v, want < 100ms (no 250ms backoff under a 30ms ctx)", elapsed)
	}
}

// TestShedReadRetriedByOneLoop: a shed read is retried by the pool's
// budgeted loop alone. A pooled Get to a draining server sends the frame
// once and retries it maxShedRetries (3) times, as a pooled Put does; a
// bare connection's Get sends it once — its read retries are for
// transport faults, not for a server that asked it to back off.
func TestShedReadRetriedByOneLoop(t *testing.T) {
	platform, err := precursor.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := precursor.Serve("127.0.0.1:0", precursor.ServerConfig{Platform: platform, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	cfg := precursor.DialConfig{PlatformKey: platform.AttestationPublicKey(), Measurement: svc.Server.Measurement()}
	pool, err := precursor.NewPool(svc.Addr(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pool.Close() })
	client, err := precursor.Dial(svc.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	svc.Server.SetDraining(true)

	for _, tc := range []struct {
		what   string
		op     func() error
		frames uint64
	}{
		{"pooled get", func() error { _, err := pool.Get("k"); return err }, 4},
		{"bare get", func() error { _, err := client.Get("k"); return err }, 1},
	} {
		before := svc.Server.Stats().ShedReads
		if err := tc.op(); !errors.Is(err, precursor.ErrRetryLater) {
			t.Fatalf("%s on a draining server: %v, want ErrRetryLater", tc.what, err)
		}
		if got := svc.Server.Stats().ShedReads - before; got != tc.frames {
			t.Errorf("%s sent %d frames, want %d", tc.what, got, tc.frames)
		}
	}
}

// TestClusterPoolsSpendTheClusterBudget: the pools a cluster client dials
// spend ClusterConfig.RetryBudget when they retry a shed, not a bucket of
// their own, and leave the deposits to the client, which makes one per op:
// a read's a hedge may spend, a write's only a retry.
func TestClusterPoolsSpendTheClusterBudget(t *testing.T) {
	f := serveGatedShards(t, 1)
	budget := overload.NewRetryBudget(4, 0.1)
	cc, err := precursor.DialCluster(f.specs, precursor.ClusterConfig{Timeout: 5 * time.Second, RetryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	for budget.TrySpend() {
		// Empty the bucket: what follows counts this client's deposits.
	}
	for i := 0; i < 10; i++ {
		if err := cc.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := cc.Get("k"); err != nil {
			t.Fatal(err)
		}
	}
	if got := budget.Tokens(); got < 2-1e-9 || got > 2+1e-9 {
		t.Errorf("10 puts and 10 gets left %.2f tokens, want 2.00 (one deposit per op)", got)
	}
	if !budget.TrySpendEarned() || budget.TrySpendEarned() {
		t.Error("the gets' deposits did not fund exactly one hedge")
	}

	// A draining shard hints a 250 ms backoff, past the ctx: the pool
	// spends a token on the retry, then returns the shed instead of
	// sleeping.
	f.svcs[0].Server.SetDraining(true)
	before := budget.Stats()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := cc.PutContext(ctx, "k", []byte("w")); !errors.Is(err, precursor.ErrRetryLater) {
		t.Fatalf("put on a draining shard: %v, want ErrRetryLater", err)
	}
	after := budget.Stats()
	if after.Granted-before.Granted != 1 || after.Tokens > before.Tokens-1+1e-9 {
		t.Errorf("the shed retry spent %d tokens of the configured bucket (%.2f -> %.2f), want 1",
			after.Granted-before.Granted, before.Tokens, after.Tokens)
	}
}

// TestPoolReplacesWedgedConnection: a connection whose request frames
// vanish on the wire answers nothing and closes nothing — every
// operation on it just times out. After wedgedAfter such operations in a
// row the pool discards it and redials, and serves again without the
// caller closing anything.
func TestPoolReplacesWedgedConnection(t *testing.T) {
	// Only the first dialed connection loses its ring writes (for good:
	// HardLoss); its replacement is clean.
	lossy := faultfab.New(faultfab.Config{Seed: 1, HardLoss: true,
		C2S: faultfab.ClassMap{faultfab.ClassWrite: faultfab.ClassProbs{Drop: 1}}})
	var dialed atomic.Uint64
	pool, _ := newPoolCluster(t, 1, func(cfg *precursor.DialConfig) {
		cfg.Timeout = 50 * time.Millisecond
		cfg.ReadRetries = -1
		cfg.WrapConn = func(c precursor.Conn) precursor.Conn {
			if dialed.Add(1) == 1 {
				return lossy.Wrap(c, faultfab.C2S, "wedged")
			}
			return c
		}
	})
	for i := 0; i < 3; i++ {
		if _, err := pool.Get("k"); !errors.Is(err, precursor.ErrTimeout) {
			t.Fatalf("get %d on the wedged connection: %v, want ErrTimeout", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := pool.Put("k", []byte("v"))
		if err == nil {
			break
		}
		// Between discard and redial the pool has no live connection and
		// fails fast with ErrClosed.
		if !errors.Is(err, precursor.ErrClosed) || time.Now().After(deadline) {
			t.Fatalf("put after the wedged connection was discarded: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := dialed.Load(); n != 2 {
		t.Errorf("dialed %d connections, want 2 (the wedged one and its replacement)", n)
	}
	if got, err := pool.Get("k"); err != nil || string(got) != "v" {
		t.Errorf("get on the replacement: %q %v", got, err)
	}
}

// TestPoolWaiterFailsFastWhenLastConnectionDies: an acquire waiting for
// the pool's one connection fails at once with ErrClosed when the op
// holding that connection finds it dead — its server stopped under the
// op — as an acquire arriving then would, instead of waiting out the
// pool's timeout for a connection only a redial can bring back.
func TestPoolWaiterFailsFastWhenLastConnectionDies(t *testing.T) {
	platform, err := precursor.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := precursor.Serve("127.0.0.1:0", precursor.ServerConfig{
		Platform: platform, Workers: 1, PollInterval: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	const timeout = 5 * time.Second
	gate := &gateWire{entered: make(chan struct{}), release: make(chan struct{})}
	var dialed atomic.Uint64
	pool, err := precursor.NewPool(svc.Addr(), precursor.DialConfig{
		PlatformKey: platform.AttestationPublicKey(),
		Measurement: svc.Server.Measurement(),
		Timeout:     timeout,
		WrapConn: func(c precursor.Conn) precursor.Conn {
			if dialed.Add(1) > 1 {
				return c
			}
			gate.Conn = c
			return gate
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pool.Close() })

	// The holder's request write parks, holding the pool's one connection.
	gate.armed.Store(true)
	holder := make(chan error, 1)
	go func() { holder <- pool.Put("k", []byte("v")) }()
	<-gate.entered
	waiter := make(chan error, 1)
	go func() {
		_, err := pool.Get("k")
		waiter <- err
	}()
	time.Sleep(20 * time.Millisecond) // the Get is queued in acquire
	svc.Close()
	start := time.Now()
	close(gate.release)
	if err := <-holder; !errors.Is(err, precursor.ErrClosed) {
		t.Fatalf("holder: %v, want ErrClosed", err)
	}
	err = <-waiter
	if d := time.Since(start); d > 100*time.Millisecond || !errors.Is(err, precursor.ErrClosed) {
		t.Fatalf("waiter ended %v after its pool's last connection died, with %v; want ErrClosed at once (the acquire timeout is %v)", d, err, timeout)
	}
}

func TestPoolBasicOps(t *testing.T) {
	pool, _ := newPoolCluster(t, 3)
	if pool.Size() != 3 {
		t.Errorf("size = %d", pool.Size())
	}
	if err := pool.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := pool.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("get: %q %v", got, err)
	}
	if err := pool.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Get("k"); !errors.Is(err, precursor.ErrNotFound) {
		t.Errorf("after delete: %v", err)
	}
}

// TestPoolConcurrency: more goroutines than connections — waiters must
// be served and every op must land.
func TestPoolConcurrency(t *testing.T) {
	pool, server := newPoolCluster(t, 2)
	const goroutines = 8
	const opsEach = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("g%d-k%d", id, i)
				if err := pool.Put(key, []byte(key)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				got, err := pool.Get(key)
				if err != nil || string(got) != key {
					t.Errorf("get: %q %v", got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := server.Stats(); st.Puts != goroutines*opsEach {
		t.Errorf("server saw %d puts", st.Puts)
	}
}

func TestPoolCloseWakesWaiters(t *testing.T) {
	pool, _ := newPoolCluster(t, 1)
	// The waiter reads busy-0 from its first Get on: it must exist before
	// either goroutine starts.
	if err := pool.Put("busy-0", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Saturate the single connection with a long-running series, then
	// close while a waiter is queued.
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		for i := 0; i < 50; i++ {
			_ = pool.Put(fmt.Sprintf("busy-%d", i), []byte("v"))
		}
	}()
	<-started
	wg.Add(1)
	var waiterErr error
	go func() {
		defer wg.Done()
		for {
			if _, err := pool.Get("busy-0"); err != nil {
				waiterErr = err
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	_ = pool.Close()
	wg.Wait()
	if !errors.Is(waiterErr, precursor.ErrPoolClosed) && !errors.Is(waiterErr, precursor.ErrClosed) {
		t.Errorf("waiter error = %v", waiterErr)
	}
	if err := pool.Put("x", []byte("v")); !errors.Is(err, precursor.ErrPoolClosed) {
		t.Errorf("put after close: %v", err)
	}
}

func TestPoolFromClients(t *testing.T) {
	platform, err := precursor.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	fabric := precursor.NewFabric()
	dev, err := fabric.NewDevice("server")
	if err != nil {
		t.Fatal(err)
	}
	server, err := precursor.NewServer(dev, precursor.ServerConfig{
		Platform: platform, Workers: 2, PollInterval: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)

	var clients []*precursor.Client
	for i := 0; i < 2; i++ {
		cdev, err := fabric.NewDevice(fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		cq, sq := fabric.ConnectRC(cdev, dev)
		go func() { _, _ = server.HandleConnection(sq) }()
		c, err := precursor.Connect(precursor.ClientConfig{
			Conn: cq, Device: cdev,
			PlatformKey: platform.AttestationPublicKey(),
			Measurement: server.Measurement(),
		})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	pool, err := precursor.NewPoolFromClients(clients)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pool.Close() })
	if err := pool.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, err := pool.Get("k"); err != nil || string(got) != "v" {
		t.Fatalf("get: %q %v", got, err)
	}
	if _, err := precursor.NewPoolFromClients(nil); err == nil {
		t.Error("empty pool accepted")
	}
}

// TestPoolDoubleClose: Close is idempotent, including from concurrent
// goroutines, and operations after any Close see ErrPoolClosed.
func TestPoolDoubleClose(t *testing.T) {
	pool, _ := newPoolCluster(t, 2)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pool.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := pool.Close(); err != nil {
		t.Errorf("Close after Close: %v", err)
	}
	if err := pool.Put("k", []byte("v")); !errors.Is(err, precursor.ErrPoolClosed) {
		t.Errorf("put after close: %v", err)
	}
}

// TestPoolCloseWhileAcquired: closing the pool mid-traffic never kills an
// in-flight operation's connection under it — borrowed connections are
// closed on release, idle ones immediately — and every connection ends up
// closed afterwards.
func TestPoolCloseWhileAcquired(t *testing.T) {
	platform, err := precursor.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	fabric := precursor.NewFabric()
	dev, err := fabric.NewDevice("server")
	if err != nil {
		t.Fatal(err)
	}
	server, err := precursor.NewServer(dev, precursor.ServerConfig{
		Platform: platform, Workers: 2, PollInterval: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)

	// Build the pool from clients we keep references to, so connection
	// closure is directly observable after the pool is gone.
	var clients []*precursor.Client
	for i := 0; i < 2; i++ {
		cdev, err := fabric.NewDevice(fmt.Sprintf("cwa%d", i))
		if err != nil {
			t.Fatal(err)
		}
		cq, sq := fabric.ConnectRC(cdev, dev)
		go func() { _, _ = server.HandleConnection(sq) }()
		c, err := precursor.Connect(precursor.ClientConfig{
			Conn: cq, Device: cdev,
			PlatformKey: platform.AttestationPublicKey(),
			Measurement: server.Measurement(),
		})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	pool, err := precursor.NewPoolFromClients(clients)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				key := fmt.Sprintf("cw-g%d-%d", g, i)
				err := pool.Put(key, []byte("v"))
				if errors.Is(err, precursor.ErrPoolClosed) {
					return // clean rejection after Close
				}
				if err != nil {
					// A connection must never be yanked mid-operation: the
					// only acceptable op error here is pool closure.
					t.Errorf("in-flight op failed: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(30 * time.Millisecond) // let traffic establish
	if err := pool.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	// All connections — idle and borrowed-at-close alike — are closed once
	// their operations drained.
	for i, c := range clients {
		if err := c.Put("after", []byte("v")); !errors.Is(err, precursor.ErrClosed) {
			t.Errorf("connection %d still open after pool close: %v", i, err)
		}
	}
}

// TestClientStatsStruct: the struct counts ops and aggregates with Add.
func TestClientStatsStruct(t *testing.T) {
	platform, err := precursor.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := precursor.Serve("127.0.0.1:0", precursor.ServerConfig{
		Platform: platform, Workers: 2, PollInterval: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := precursor.Dial(svc.Addr(), precursor.DialConfig{
		PlatformKey: platform.AttestationPublicKey(),
		Measurement: svc.Server.Measurement(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.Put("s", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Get("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("s"); err != nil {
		t.Fatal(err)
	}
	st := c.StatsStruct()
	if st.Puts != 3 || st.Gets != 1 || st.Deletes != 1 || st.IntegrityFailures != 0 {
		t.Errorf("StatsStruct = %+v", st)
	}
	var agg precursor.ClientStats
	agg.Add(st)
	agg.Add(st)
	if agg.Puts != 2*st.Puts || agg.Gets != 2*st.Gets {
		t.Errorf("ClientStats.Add = %+v", agg)
	}
}

// TestPoolCancelDuringShedBackoffSendsNothing: a ctx cancelled while the
// pool backs off from a shed ends the operation at once, with ErrTimeout
// joined with context.Canceled, and no further attempt reaches the server.
func TestPoolCancelDuringShedBackoffSendsNothing(t *testing.T) {
	pool, server := newPoolCluster(t, 1)
	// Every attempt is shed with the drain's hint, so the backoff sleeps
	// at least half of overload.DefaultMaxHint.
	server.SetDraining(true)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for server.Stats().ShedWrites == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	start := time.Now()
	err := pool.PutContext(ctx, "k", []byte("v"))
	if d := time.Since(start); d >= overload.DefaultMaxHint/2 {
		t.Errorf("put returned %v after a cancel during its backoff, want at once", d)
	}
	if !errors.Is(err, precursor.ErrTimeout) || !errors.Is(err, context.Canceled) {
		t.Errorf("put cancelled during a shed backoff: %v, want ErrTimeout joined with context.Canceled", err)
	}
	if n := server.Stats().ShedWrites; n != 1 {
		t.Errorf("the server saw %d frames, want 1: nothing is sent after the cancel", n)
	}
}
