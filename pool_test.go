package precursor_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"precursor"
)

func newPoolCluster(t *testing.T, size int) (*precursor.Pool, *precursor.Server) {
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
	pool, err := precursor.NewPool(svc.Addr(), precursor.DialConfig{
		PlatformKey: platform.AttestationPublicKey(),
		Measurement: svc.Server.Measurement(),
		Timeout:     10 * time.Second,
	}, size)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pool.Close() })
	return pool, svc.Server
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
