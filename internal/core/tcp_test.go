package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"precursor/internal/faultfab"
	"precursor/internal/rdma"
	"precursor/internal/sgx"
)

// TestOverTCPFabric runs the full Precursor protocol — attestation, ring
// bootstrap, put/get/delete — across a real TCP connection via the
// SoftRoCE-style fabric, proving the store works between processes, in
// both payload placements.
func TestOverTCPFabric(t *testing.T) {
	for _, p := range placements {
		t.Run(p.name, func(t *testing.T) {
			platform, err := sgx.NewPlatform()
			if err != nil {
				t.Fatal(err)
			}
			serverDev := rdma.NewDevice("server")
			cfg := p.cfg
			cfg.Platform, cfg.Workers, cfg.PollInterval = platform, 2, time.Microsecond
			server, err := NewServer(serverDev, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer server.Close()

			ln, err := rdma.ListenTCP(serverDev, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				for {
					qp, err := ln.Accept()
					if err != nil {
						return
					}
					go func() { _, _ = server.HandleConnection(qp) }()
				}
			}()

			clientDev := rdma.NewDevice("client")
			conn, err := rdma.DialTCP(clientDev, ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			client, err := Connect(ClientConfig{
				Conn: conn, Device: clientDev,
				PlatformKey: platform.AttestationPublicKey(),
				Measurement: server.Measurement(),
				Timeout:     10 * time.Second,
			})
			if err != nil {
				t.Fatalf("Connect over TCP fabric: %v", err)
			}
			defer client.Close()

			value := bytes.Repeat([]byte{0xCD}, 1500)
			if err := client.Put("tcp-key", value); err != nil {
				t.Fatalf("Put: %v", err)
			}
			got, err := client.Get("tcp-key")
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !bytes.Equal(got, value) {
				t.Error("round trip mismatch over TCP fabric")
			}
			if err := client.Delete("tcp-key"); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, err := client.Get("tcp-key"); !errors.Is(err, ErrNotFound) {
				t.Errorf("after delete: %v", err)
			}
		})
	}
}

// TestOverTCPFabricConcurrentClients exercises multiple TCP-fabric
// clients against one server concurrently.
func TestOverTCPFabricConcurrentClients(t *testing.T) {
	platform, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	serverDev := rdma.NewDevice("server")
	server, err := NewServer(serverDev, ServerConfig{
		Platform: platform, Workers: 2, PollInterval: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	ln, err := rdma.ListenTCP(serverDev, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			qp, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = server.HandleConnection(qp) }()
		}
	}()

	const n = 4
	var wg sync.WaitGroup
	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			dev := rdma.NewDevice(fmt.Sprintf("client-%d", id))
			conn, err := rdma.DialTCP(dev, ln.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			client, err := Connect(ClientConfig{
				Conn: conn, Device: dev,
				PlatformKey: platform.AttestationPublicKey(),
				Measurement: server.Measurement(),
				Timeout:     10 * time.Second,
			})
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			clients[id] = client
			for op := 0; op < 30; op++ {
				key := fmt.Sprintf("c%d-k%d", id, op)
				if err := client.Put(key, []byte(key)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				got, err := client.Get(key)
				if err != nil || string(got) != key {
					t.Errorf("get: %q %v", got, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if st := server.Stats(); st.Clients != n {
		t.Errorf("clients = %d", st.Clients)
	}
	// A client that hangs up ends its session: the server's end of the
	// socket reads EOF, the queue pair fails, the trusted thread's sweep
	// drops the session.
	for _, c := range clients {
		if c != nil {
			_ = c.Close()
		}
	}
	for deadline := time.Now().Add(5 * time.Second); server.Stats().Clients != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions left after every client closed", server.Stats().Clients)
		}
	}
}

// TestServerStopEndsInFlightOps stops a server the way Service.Close does
// — its queue pairs closed, then Server.Close — while a put and a get are
// in flight, on either fabric. The server's replies are held back, so both
// ops are still awaiting them. The client sees its queue pair fail and
// both ops end within 100 ms instead of waiting out Timeout: the put, sent
// and maybe applied, with ErrClosed joined with ErrUnconfirmed, the get
// with plain ErrClosed.
func TestServerStopEndsInFlightOps(t *testing.T) {
	const timeout, bound = 2 * time.Second, 100 * time.Millisecond
	for _, fabric := range []string{"in-process", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			replies := faultfab.New(faultfab.Config{Seed: 1})
			var mu sync.Mutex
			var srvConns []rdma.Conn
			wrap := func(c rdma.Conn) rdma.Conn {
				mu.Lock()
				defer mu.Unlock()
				fc := replies.Wrap(c, faultfab.S2C, fmt.Sprintf("s%d", len(srvConns)))
				srvConns = append(srvConns, fc)
				return fc
			}
			var server *Server
			var connect func() *Client
			if fabric == "tcp" {
				server, connect = tcpServer(t, wrap, timeout)
			} else {
				tc := newCluster(t, ServerConfig{})
				tc.wrapSrv = wrap
				server = tc.server
				connect = func() *Client { return tc.connect(func(c *ClientConfig) { c.Timeout = timeout }) }
			}
			put, get := connect(), connect()
			if err := put.Put("k", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			replies.Partition(faultfab.S2C)
			type outcome struct {
				err error
				at  time.Time
			}
			puts, gets := make(chan outcome, 1), make(chan outcome, 1)
			go func() {
				err := put.Put("k", []byte("v2"))
				puts <- outcome{err, time.Now()}
			}()
			go func() {
				_, err := get.Get("k")
				gets <- outcome{err, time.Now()}
			}()
			for deadline := time.Now().Add(timeout); server.Stats().Puts < 2 || server.Stats().Gets < 1; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatal("the ops never reached the server")
				}
			}
			stop := time.Now()
			mu.Lock()
			for _, c := range srvConns {
				_ = c.Close()
			}
			mu.Unlock()
			server.Close()
			p, g := <-puts, <-gets
			if d := p.at.Sub(stop); d > bound || !errors.Is(p.err, ErrClosed) || !errors.Is(p.err, ErrUnconfirmed) {
				t.Errorf("in-flight put ended %v after the stop with %v, want ErrClosed joined with ErrUnconfirmed within %v", d, p.err, bound)
			}
			if d := g.at.Sub(stop); d > bound || !errors.Is(g.err, ErrClosed) || errors.Is(g.err, ErrUnconfirmed) {
				t.Errorf("in-flight get ended %v after the stop with %v, want plain ErrClosed within %v", d, g.err, bound)
			}
		})
	}
}

// tcpServer serves a fresh server over the TCP fabric on a loopback port,
// each accepted queue pair passed through wrap, and returns it with a
// function that connects a client whose ops time out after timeout.
func tcpServer(t *testing.T, wrap func(rdma.Conn) rdma.Conn, timeout time.Duration) (*Server, func() *Client) {
	t.Helper()
	platform, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	serverDev := rdma.NewDevice("server")
	server, err := NewServer(serverDev, ServerConfig{Platform: platform, Workers: 2, PollInterval: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	ln, err := rdma.ListenTCP(serverDev, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			qp, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = server.HandleConnection(wrap(qp)) }()
		}
	}()
	n := 0
	return server, func() *Client {
		n++
		dev := rdma.NewDevice(fmt.Sprintf("client-%d", n))
		conn, err := rdma.DialTCP(dev, ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		client, err := Connect(ClientConfig{
			Conn: conn, Device: dev,
			PlatformKey: platform.AttestationPublicKey(),
			Measurement: server.Measurement(),
			Timeout:     timeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = client.Close() })
		return client
	}
}
