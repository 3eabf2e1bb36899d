package core

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"precursor/internal/obs"
	"precursor/internal/rdma"
	"precursor/internal/wire"
)

// tracedPair returns a connected client/server pair with a tracer on
// each side.
func tracedPair(t *testing.T, srvCfg ServerConfig) (*testCluster, *Client, *obs.Tracer, *obs.Tracer) {
	t.Helper()
	srvTr := obs.New(obs.Config{Side: obs.SideServer, Ring: 64})
	cliTr := obs.New(obs.Config{Side: obs.SideClient, Ring: 64})
	srvCfg.Tracer = srvTr
	tc := newCluster(t, srvCfg)
	c := tc.connect(func(cfg *ClientConfig) { cfg.Tracer = cliTr })
	return tc, c, srvTr, cliTr
}

// serverTraces returns the server tracer's retained traces once there
// are n of them. The server finishes an op's trace on its sender thread
// after the reply's ring write — possibly after the client call that the
// reply completes has already returned.
func serverTraces(t *testing.T, tr *obs.Tracer, n int) []obs.Trace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := tr.Recent()
		if len(got) >= n || time.Now().After(deadline) {
			return got
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestTracePropagationSingleOp checks a traced put/get carries the
// client's trace context through the sealed control segment: the server
// records its work under the client's trace id, as a child of the
// client's span, and a frame of one is traced as its op on both sides.
func TestTracePropagationSingleOp(t *testing.T) {
	tc, c, srvTr, cliTr := tracedPair(t, ServerConfig{})

	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := c.Get("k"); err != nil {
		t.Fatalf("Get: %v", err)
	}

	cli := cliTr.Recent()
	srv := serverTraces(t, srvTr, 2)
	if len(cli) != 2 || len(srv) != 2 {
		t.Fatalf("recent: client %d server %d traces, want 2/2", len(cli), len(srv))
	}
	for i, kind := range []string{"put", "get"} {
		if cli[i].Kind != kind || srv[i].Kind != kind {
			t.Fatalf("op %d kinds: client %q server %q, want %q", i, cli[i].Kind, srv[i].Kind, kind)
		}
		if cli[i].ID == 0 || srv[i].ID != cli[i].ID {
			t.Fatalf("%s trace ids: client %x server %x, want shared nonzero", kind, cli[i].ID, srv[i].ID)
		}
		if srv[i].Parent != cli[i].Span {
			t.Fatalf("%s server parent = %x, want client span %x", kind, srv[i].Parent, cli[i].Span)
		}
		if srv[i].Span == cli[i].Span {
			t.Fatalf("%s server reused the client's span id", kind)
		}
	}
	if n := tc.server.Stats().TraceCtxErrors; n != 0 {
		t.Fatalf("server counted %d trace context errors on clean ops", n)
	}
}

// TestTracePropagationExplicitRef checks the …Context entry points adopt
// the parent ref their ctx carries (the cluster layer's path), so the
// server's span chains to the original root, not a fresh trace.
func TestTracePropagationExplicitRef(t *testing.T) {
	_, c, srvTr, _ := tracedPair(t, ServerConfig{})

	root := obs.New(obs.Config{Side: obs.SideClient, Ring: 8})
	op := root.Start(0, "cluster-put")
	ref := op.Ref()
	ctx := obs.WithRef(context.Background(), ref)
	if err := c.PutContext(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("PutContext: %v", err)
	}
	if v, err := c.GetContext(ctx, "k"); err != nil || string(v) != "v" {
		t.Fatalf("GetContext = %q, %v", v, err)
	}
	if err := c.DeleteContext(ctx, "k"); err != nil {
		t.Fatalf("DeleteContext: %v", err)
	}
	op.Finish()

	for _, tr := range serverTraces(t, srvTr, 3) {
		if tr.ID != ref.TraceID {
			t.Fatalf("server trace id %x, want adopted root %x", tr.ID, ref.TraceID)
		}
	}
	if n := len(srvTr.Recent()); n != 3 {
		t.Fatalf("server recorded %d ops, want 3", n)
	}
}

// TestTracePropagationBatch checks a batch frame carries one trace
// context for the whole batch and the server's batch op adopts it.
func TestTracePropagationBatch(t *testing.T) {
	_, c, srvTr, cliTr := tracedPair(t, ServerConfig{})

	ops := []BatchOp{
		{Kind: BatchPut, Key: "a", Value: []byte("1")},
		{Kind: BatchPut, Key: "b", Value: []byte("2")},
		{Kind: BatchGet, Key: "a"},
	}
	res, err := c.Batch(ops)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}

	cli := cliTr.Recent()
	srv := serverTraces(t, srvTr, 1)
	if len(cli) != 1 || len(srv) != 1 {
		t.Fatalf("recent: client %d server %d traces, want 1/1", len(cli), len(srv))
	}
	if cli[0].Kind != "batch" || srv[0].Kind != "batch" {
		t.Fatalf("kinds %q/%q, want batch", cli[0].Kind, srv[0].Kind)
	}
	if srv[0].ID != cli[0].ID || srv[0].Parent != cli[0].Span {
		t.Fatalf("batch span not stitched: client (%x,%x) server (%x parent %x)",
			cli[0].ID, cli[0].Span, srv[0].ID, srv[0].Parent)
	}
}

// corruptNextWrite wraps the server's queue pair and flips a byte in
// the middle of the next sizable one-sided write — i.e. the next reply
// frame — so a read's first reply fails integrity and the client
// retries.
type corruptNextWrite struct {
	rdma.Conn
	armed atomic.Bool
}

func (c *corruptNextWrite) PostWrite(wrID uint64, rkey uint32, off uint64, data []byte, signaled bool) error {
	if len(data) > 16 && c.armed.CompareAndSwap(true, false) {
		d := append([]byte(nil), data...)
		d[len(d)/2] ^= 0xff
		return c.Conn.PostWrite(wrID, rkey, off, d, signaled)
	}
	return c.Conn.PostWrite(wrID, rkey, off, data, signaled)
}

// TestTracePropagationUnderRetry checks a read that retries after an
// injected reply corruption keeps one trace id across attempts and the
// server records every attempt under it.
func TestTracePropagationUnderRetry(t *testing.T) {
	srvTr := obs.New(obs.Config{Side: obs.SideServer, Ring: 64})
	cliTr := obs.New(obs.Config{Side: obs.SideClient, Ring: 64})
	tc := newCluster(t, ServerConfig{Tracer: srvTr})

	dev, err := tc.fabric.NewDevice("retry-client")
	if err != nil {
		t.Fatal(err)
	}
	cliQP, srvQP := tc.fabric.ConnectRC(dev, tc.srvDev)
	corrupt := &corruptNextWrite{Conn: srvQP}
	done := make(chan error, 1)
	go func() {
		_, err := tc.server.HandleConnection(corrupt)
		done <- err
	}()
	c, err := Connect(ClientConfig{
		Conn: cliQP, Device: dev,
		PlatformKey: tc.platform.AttestationPublicKey(),
		Measurement: tc.server.Measurement(),
		Timeout:     10 * time.Second,
		RetryBase:   time.Millisecond,
		ReadRetries: 3,
		Tracer:      cliTr,
	})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("HandleConnection: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })

	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	corrupt.armed.Store(true) // next reply frame (the get's) is corrupted
	if v, err := c.Get("k"); err != nil || string(v) != "v" {
		t.Fatalf("Get after corruption = %q, %v", v, err)
	}

	var getTrace *obs.Trace
	for _, tr := range cliTr.Recent() {
		if tr.Kind == "get" {
			g := tr
			getTrace = &g
		}
	}
	if getTrace == nil {
		t.Fatal("no client get trace")
	}
	attempts := 0
	for _, sp := range getTrace.Spans {
		if sp.Stage == obs.CliAttempt {
			attempts++
		}
	}
	if attempts < 2 {
		t.Fatalf("client get recorded %d attempts, want >= 2 (retry)", attempts)
	}
	serverGets := 0
	for _, tr := range srvTr.Recent() {
		if tr.Kind == "get" && tr.ID == getTrace.ID {
			serverGets++
		}
	}
	if serverGets < 2 {
		t.Fatalf("server recorded %d gets under trace %x, want >= 2", serverGets, getTrace.ID)
	}
}

// TestTraceContextDecodeFailureCounted checks the server surfaces a
// garbage trace trailer as a fault annotation plus a counter instead of
// failing or silently dropping it.
func TestTraceContextDecodeFailureCounted(t *testing.T) {
	srvTr := obs.New(obs.Config{Side: obs.SideServer, Ring: 8})
	tc := newCluster(t, ServerConfig{Tracer: srvTr})

	op := srvTr.Start(0, "get")
	id := op.TraceID()
	tc.server.adoptTrace(wire.TraceContext{}, true, op)
	if op.TraceID() != id {
		t.Fatal("bad context adopted")
	}
	op.Finish()
	if got := tc.server.Stats().TraceCtxErrors; got != 1 {
		t.Fatalf("TraceCtxErrors = %d, want 1", got)
	}
	// The fault note marks the window so nearby traces carry it.
	found := false
	for _, tr := range srvTr.Recent() {
		for _, f := range tr.Faults {
			if strings.Contains(f, "trace context decode failure") {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("decode failure fault annotation not recorded")
	}

	// A valid context adopts and does not count.
	op = srvTr.Start(0, "get")
	tc.server.adoptTrace(wire.TraceContext{TraceID: 5, ParentSpan: 6}, false, op)
	if op.TraceID() != 5 {
		t.Fatal("valid context not adopted")
	}
	op.Finish()
	if got := tc.server.Stats().TraceCtxErrors; got != 1 {
		t.Fatalf("TraceCtxErrors after valid adopt = %d, want 1", got)
	}
}

// TestTracedOpsSurviveSlowServer smoke-checks tracing under latency: a
// slow-threshold server tracer must retain the slow op.
func TestTracedOpsSurviveSlowServer(t *testing.T) {
	srvTr := obs.New(obs.Config{
		Side: obs.SideServer, Ring: 16,
		TailSample:    -1, // retain essential only
		SlowThreshold: time.Nanosecond,
		SlowLogEvery:  -1,
	})
	tc := newCluster(t, ServerConfig{Tracer: srvTr})
	c := tc.connect()
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if len(serverTraces(t, srvTr, 1)) == 0 {
		t.Fatal("slow op not retained under tail sampling")
	}
}
