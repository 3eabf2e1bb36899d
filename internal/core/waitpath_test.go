package core

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"precursor/internal/obs"
	"precursor/internal/rdma"
	"precursor/internal/sgx"
	"precursor/internal/wire"
)

// The waiting path (DESIGN.md §5): replies a trusted thread runs to
// completion beside replies it queues, a peer that stops draining, and the
// client's self-switching spin.

// fire sends ops as one request frame and returns without awaiting its
// reply — what a client does that never drains its response ring.
func fire(c *Client, ops ...BatchOp) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sendLocked(ops, &pending{}, time.Now().Add(20*time.Millisecond), obs.SpanRef{})
}

// nextReplyOid polls c's response ring once, by hand, and returns the oid
// sealed into the frame it found (ok false on an empty ring).
func nextReplyOid(t *testing.T, c *Client) (oid uint64, ok bool) {
	t.Helper()
	msg, ready, err := c.respReader.Poll()
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	if !ready {
		return 0, false
	}
	var resp wire.Response
	if err := resp.Decode(msg); err != nil {
		t.Fatalf("reply frame: %v", err)
	}
	pt, err := c.aead.OpenAppend(nil, resp.SealedControl, c.ad[:])
	if err != nil {
		t.Fatalf("reply seal: %v", err)
	}
	var rep wire.BatchReply
	if err := wire.DecodeBatchReply(pt, &rep); err != nil {
		t.Fatalf("reply control: %v", err)
	}
	return rep.Oid, true
}

// sessionOf returns the server's session for c.
func sessionOf(s *Server, c *Client) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[c.ID()]
}

// TestRepliesKeepIssueOrderInlineOrQueued: one session issues frames of
// two ops and of one and drains its four-slot response ring at
// half the rate, so the ring runs out of credit mid-stream — some replies
// the trusted thread writes itself, the rest go through the sender queue,
// and once that has drained replies go inline again. They must arrive in
// issue order all the same: an inline reply never overtakes a queued one.
// A revoked session's queued replies are dropped, as they always were.
func TestRepliesKeepIssueOrderInlineOrQueued(t *testing.T) {
	tc := newCluster(t, ServerConfig{Workers: 1})
	c := tc.connect(func(cfg *ClientConfig) { cfg.RespSlots = 4 })
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := tc.server.Stats()

	const frames = 200
	var arrived []uint64
	drain := func() bool {
		oid, ok := nextReplyOid(t, c)
		if ok {
			arrived = append(arrived, oid)
		}
		return ok
	}
	for i := 0; i < frames; i++ {
		ops := []BatchOp{{Kind: BatchGet, Key: "k"}}
		if i%3 == 0 {
			ops = append(ops, BatchOp{Kind: BatchPut, Key: "k", Value: []byte("v")})
		}
		if err := fire(c, ops...); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i%2 == 1 {
			drain()
		}
	}
	for deadline := time.Now().Add(10 * time.Second); len(arrived) < frames; {
		if !drain() {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d replies arrived", len(arrived), frames)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	if !slices.IsSorted(arrived) {
		t.Fatalf("replies arrived out of issue order: %v", arrived)
	}
	st := tc.server.Stats()
	inline, queued := st.RepliesInline-before.RepliesInline, st.RepliesQueued-before.RepliesQueued
	if inline+queued != frames || inline == 0 || queued == 0 {
		t.Fatalf("%d replies inline + %d queued, want both kinds and %d in all", inline, queued, frames)
	}
	// The queue has drained: the next reply is the trusted thread's again.
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	if got := tc.server.Stats().RepliesInline; got != st.RepliesInline+1 {
		t.Errorf("reply after the queue drained was not written inline")
	}

	// Revocation: fill the ring, let replies queue up behind it, revoke.
	// Nothing more may reach the ring and the queue must empty.
	sess := sessionOf(tc.server, c)
	for i := 0; i < 12; i++ {
		if err := fire(c, BatchOp{Kind: BatchGet, Key: "k"}); err != nil {
			t.Fatal(err)
		}
	}
	tc.server.RevokeClient(c.ID())
	for deadline := time.Now().Add(5 * time.Second); sess.queued.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d replies of a revoked session still queued", sess.queued.Load())
		}
	}
	inRing := 0
	for {
		// The credit write of a poll fails on the revoked queue pair; the
		// frame it consumed still counts.
		if _, ready, _ := c.respReader.Poll(); !ready {
			break
		}
		inRing++
	}
	if inRing > 4 {
		t.Errorf("%d replies reached a four-slot ring nobody drained", inRing)
	}
}

// stallConn is a client's end of a TCP fabric connection that can stop
// reading: the peer's writes then back up in the socket buffers.
type stallConn struct {
	net.Conn
	stalled atomic.Bool
	closed  chan struct{}
}

func (c *stallConn) Read(p []byte) (int, error) {
	if c.stalled.Load() {
		<-c.closed
		return 0, io.EOF
	}
	return c.Conn.Read(p)
}

func (c *stallConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return c.Conn.Close()
}

// TestStalledPeerNeverDelaysOtherSessions: two sessions share one trusted
// thread and one sender. One stops draining — in-process its response ring
// is never polled, over the TCP fabric its socket is never read, with
// socket buffers shrunk so that a single large reply fills them — and keeps
// asking for replies. The other session's operations must not queue up
// behind it: with three in a hundred of them issued beside a request the
// stalled session cannot be answered, their p99 stays under half of
// replyCreditWait (at the parent commit every reply waited its turn behind
// a sender that gives each of the stalled session's 20 ms — p99 20.1 ms —
// and over TCP behind a conn.Write with no bound at all: the test never
// ends). The stalled session is given up on: its queue empties.
func TestStalledPeerNeverDelaysOtherSessions(t *testing.T) {
	big := bytes.Repeat([]byte{0xAB}, 16<<10)

	// run drives the healthy session while the stalled one fires requests,
	// then checks both.
	run := func(t *testing.T, server *Server, healthy, stalled *Client, maxOp time.Duration) {
		if err := healthy.Put("big", big); err != nil {
			t.Fatal(err)
		}
		if err := healthy.Put("small", []byte("v")); err != nil {
			t.Fatal(err)
		}
		sess := sessionOf(server, stalled)
		ops := 3000
		if testing.Short() {
			ops = 1000
		}
		stalledRequests := ops * 3 / 100
		lat := make([]time.Duration, 0, ops)
		fired := 0
		for i := 0; i < ops; i++ {
			if fired < stalledRequests && i%16 == 0 {
				// Once the server has given up on the connection a request
				// no longer goes out; that is the stalled session's affair.
				_ = fire(stalled, BatchOp{Kind: BatchGet, Key: "big"})
				fired++
			}
			start := time.Now()
			if _, err := healthy.Get("small"); err != nil {
				t.Fatalf("healthy session, op %d: %v", i, err)
			}
			lat = append(lat, time.Since(start))
		}
		slices.Sort(lat)
		p99, slowest := lat[len(lat)*99/100], lat[len(lat)-1]
		t.Logf("healthy session: p50 %v p99 %v max %v over %d ops beside %d unanswerable requests",
			lat[len(lat)/2], p99, slowest, ops, fired)
		if p99 > replyCreditWait/2 {
			t.Errorf("healthy session's p99 = %v, want under %v: it waited behind the stalled one", p99, replyCreditWait/2)
		}
		if slowest > maxOp {
			t.Errorf("healthy session's slowest op = %v, want under %v", slowest, maxOp)
		}
		for deadline := time.Now().Add(time.Duration(stalledRequests)*replyCreditWait + 5*time.Second); sess.queued.Load() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("stalled session never given up on: %d replies still queued", sess.queued.Load())
			}
		}
	}

	t.Run("inproc", func(t *testing.T) {
		tc := newCluster(t, ServerConfig{Workers: 1})
		healthy := tc.connect()
		stalled := tc.connect(func(cfg *ClientConfig) { cfg.RespSlots = 2 })
		// In memory nothing a session does can hold the trusted thread; a
		// second is room for the scheduler of a loaded test host.
		run(t, tc.server, healthy, stalled, time.Second)
		if st := tc.server.Stats(); st.RepliesQueued == 0 || st.RepliesInline == 0 {
			t.Errorf("%d replies queued, %d inline: want the stalled session's queued and the healthy one's inline",
				st.RepliesQueued, st.RepliesInline)
		}
	})

	t.Run("tcp", func(t *testing.T) {
		platform, err := sgx.NewPlatform()
		if err != nil {
			t.Fatal(err)
		}
		serverDev := rdma.NewDevice("server")
		server, err := NewServer(serverDev, ServerConfig{Platform: platform, Workers: 1, PollInterval: time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		defer server.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				_ = conn.(*net.TCPConn).SetWriteBuffer(4 << 10)
				go func() { _, _ = server.HandleConnection(rdma.NewTCPQP(serverDev, conn)) }()
			}
		}()
		dial := func(name string) (*Client, *stallConn) {
			raw, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			_ = raw.(*net.TCPConn).SetReadBuffer(4 << 10)
			sc := &stallConn{Conn: raw, closed: make(chan struct{})}
			dev := rdma.NewDevice(name)
			c, err := Connect(ClientConfig{
				Conn: rdma.NewTCPQP(dev, sc), Device: dev,
				PlatformKey: platform.AttestationPublicKey(), Measurement: server.Measurement(),
				Timeout: 10 * time.Second,
			})
			if err != nil {
				t.Fatalf("connect %s: %v", name, err)
			}
			t.Cleanup(func() { _ = c.Close() })
			return c, sc
		}
		healthy, _ := dial("healthy")
		stalled, sc := dial("stalled")
		sc.stalled.Store(true)
		// One write into the stalled socket may hold the shared sender for
		// the fabric's write bound (250 ms) before the connection is given
		// up on; whoever waits then waits once.
		run(t, server, healthy, stalled, 2*time.Second)
	})
}

// TestClientSpinSwitchesItselfOff: the client's wait ladder decides from
// what it observes, with nothing configured. In-process the reply arrives
// inside the spin, and the client almost never sleeps. Over the TCP fabric
// the client has no spin at all — the write wakes it (wake_test.go) — so
// its waits start with a park. Both are read off the counters;
// the in-process half also takes wall time out of the picture by giving the
// ladder a clock that moves 10 ns a reading, so that "inside the spin"
// means "within two thousand polls" however slow the host (the race
// detector alone would otherwise push a round trip past 20 µs).
func TestClientSpinSwitchesItselfOff(t *testing.T) {
	const warm, ops = 10, 128
	drive := func(t *testing.T, c *Client) (spins, sleeps uint64) {
		if err := c.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < warm; i++ {
			if _, err := c.Get("k"); err != nil {
				t.Fatal(err)
			}
		}
		before := c.StatsStruct()
		for i := 0; i < ops; i++ {
			if _, err := c.Get("k"); err != nil {
				t.Fatal(err)
			}
		}
		after := c.StatsStruct()
		t.Logf("per op after %d warm-up ops: %.1f spins, %.2f yields, %.2f sleeps", warm,
			float64(after.PollSpins-before.PollSpins)/ops, float64(after.PollYields-before.PollYields)/ops,
			float64(after.PollSleeps-before.PollSleeps)/ops)
		return after.PollSpins - before.PollSpins, after.PollSleeps - before.PollSleeps
	}

	t.Run("inproc", func(t *testing.T) {
		tc := newCluster(t, ServerConfig{Workers: 1})
		c := tc.connect()
		now := time.Now()
		c.wait.Clock = func() time.Time {
			now = now.Add(10 * time.Nanosecond)
			return now
		}
		spins, sleeps := drive(t, c)
		if sleeps > ops/20 {
			t.Errorf("in-process client slept %d times in %d ops: the spin switched itself off", sleeps, ops)
		}
		if spins == 0 {
			t.Error("in-process client never spun")
		}
	})

	t.Run("tcp", func(t *testing.T) {
		platform, err := sgx.NewPlatform()
		if err != nil {
			t.Fatal(err)
		}
		serverDev := rdma.NewDevice("server")
		server, err := NewServer(serverDev, ServerConfig{Platform: platform, Workers: 1, PollInterval: time.Microsecond})
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
		dev := rdma.NewDevice("client")
		conn, err := rdma.DialTCP(dev, ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c, err := Connect(ClientConfig{Conn: conn, Device: dev, PlatformKey: platform.AttestationPublicKey(),
			Measurement: server.Measurement(), Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		spins, sleeps := drive(t, c)
		// Over the TCP fabric the client has no spin at all: every wait
		// starts with a park on the write. (An op whose reply is already in
		// the ring at its first poll takes no step; under the race detector
		// a few in 128 do.) A spin left on would read near 0 sleeps an op.
		if spins != 0 {
			t.Errorf("TCP client spun %d times in %d ops, want none", spins, ops)
		}
		if sleeps < ops/2 {
			t.Errorf("TCP client slept %d times in %d ops: it is still spinning", sleeps, ops)
		}
		if st := server.Stats(); st.RepliesInline != 0 {
			t.Errorf("%d replies written inline over a transport whose post can stall", st.RepliesInline)
		}
	})
}

// TestEntrySizeClasses: the table holds every stored key's baseEntry by
// value, in a record beside one 8-byte index slot (hashtable's
// TestSlotAndRecordSizes pins both): at most 48 bytes and no pointer, 52
// with the key's 4-byte place, a chunk of 315 in the allocator's 16 384 B
// class with no type header. One more byte, or a pointer, moves the chunk a
// class up. Each mode's fields are a column that exists exactly when its
// mode is on: the MAC (hardened), the inline region (inline values) and the
// version (value log).
func TestEntrySizeClasses(t *testing.T) {
	if n := unsafe.Sizeof(baseEntry{}); n > 48 {
		t.Fatalf("baseEntry is %d bytes, want at most 48", n)
	}
	if p := pointerField(reflect.TypeOf(baseEntry{}), "baseEntry"); p != "" {
		t.Errorf("%s holds a pointer: a record must be pointer-free", p)
	}
	for _, cfg := range []ServerConfig{{}, {InlineSmallValues: true}, {HardenedMACs: true}, {DataDir: t.TempDir()},
		{HardenedMACs: true, InlineSmallValues: true, DataDir: t.TempDir()}} {
		cfg.Workers = 1
		tbl := newCluster(t, cfg).server.table
		if got := [3]bool{tbl.macs != nil, tbl.inline != nil, tbl.vers != nil}; got != [3]bool{cfg.HardenedMACs, cfg.InlineSmallValues, cfg.DataDir != ""} {
			t.Errorf("%+v: columns (MAC, inline, version) = %v", cfg, got)
		}
	}
}

// pointerField names the first part of a value of type t, itself named
// path, that the garbage collector must scan, or returns "".
func pointerField(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerField(t.Field(i).Type, path+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		if t.Len() == 0 {
			return ""
		}
		return pointerField(t.Elem(), path+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return path
	}
	return ""
}
