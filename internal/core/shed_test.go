package core

// End-to-end admission-control shed semantics over the in-process
// fabric: a draining server refuses every frame with a sealed
// RETRY_LATER (carrying a backoff hint) and its oid burned, a frame of
// gets as a read and any other as a write, writes are guaranteed
// un-applied, batch frames are shed as a unit — and none of it ever surfaces
// as ErrUnconfirmed, because a shed op provably did not run. Plus the
// parent-deadline propagation contract on the batch path: a spent
// parent fails fast with ErrTimeout before anything reaches the wire.

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"precursor/internal/faultfab"
	"precursor/internal/rdma"
)

func TestDrainShedsReadWithHint(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}

	tc.server.SetDraining(true)
	_, err := c.Get("k")
	if !errors.Is(err, ErrRetryLater) {
		t.Fatalf("Get while draining: got %v, want ErrRetryLater", err)
	}
	var rl *RetryLaterError
	if !errors.As(err, &rl) {
		t.Fatalf("shed error %v does not unwrap to *RetryLaterError", err)
	}
	if rl.Hint <= 0 {
		t.Errorf("shed carried no backoff hint: %v", rl.Hint)
	}
	if errors.Is(err, ErrUnconfirmed) {
		t.Errorf("a shed is a guaranteed not-applied, never ErrUnconfirmed: %v", err)
	}

	// Recovery: the same connection serves again once drain lifts.
	tc.server.SetDraining(false)
	v, err := c.Get("k")
	if err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("Get after drain lifted: %q, %v", v, err)
	}
	if st := tc.server.Stats(); st.ShedReads == 0 {
		t.Errorf("ShedReads = 0, want > 0")
	}
}

func TestDrainShedsWriteNotApplied(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()

	tc.server.SetDraining(true)
	err := c.Put("k", []byte("v"))
	if !errors.Is(err, ErrRetryLater) {
		t.Fatalf("Put while draining: got %v, want ErrRetryLater", err)
	}
	if errors.Is(err, ErrUnconfirmed) {
		t.Errorf("shed write must not be ErrUnconfirmed: %v", err)
	}
	tc.server.SetDraining(false)

	// The RETRY_LATER contract: the shed write was never applied.
	if _, err := c.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after shed Put: got %v, want ErrNotFound", err)
	}
	// And the session survives the shed — the op id was burned, not lost.
	if err := c.Put("k", []byte("v2")); err != nil {
		t.Fatalf("Put after drain lifted: %v", err)
	}
	if v, err := c.Get("k"); err != nil || !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("Get: %q, %v", v, err)
	}
	if st := tc.server.Stats(); st.ShedWrites == 0 {
		t.Errorf("ShedWrites = 0, want > 0")
	}
}

func TestDrainShedsBatchAsUnit(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	if err := c.Put("a", []byte("old")); err != nil {
		t.Fatalf("Put: %v", err)
	}

	tc.server.SetDraining(true)
	res, err := c.Batch([]BatchOp{
		{Kind: BatchPut, Key: "b", Value: []byte("new")},
		{Kind: BatchGet, Key: "a"},
		{Kind: BatchDelete, Key: "a"},
	})
	if !errors.Is(err, ErrRetryLater) {
		t.Fatalf("Batch while draining: got %v, want ErrRetryLater", err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	for i, r := range res {
		if !errors.Is(r.Err, ErrRetryLater) {
			t.Errorf("op %d: got %v, want ErrRetryLater (batch sheds as a unit)", i, r.Err)
		}
		if errors.Is(r.Err, ErrUnconfirmed) {
			t.Errorf("op %d: shed batch op must not be ErrUnconfirmed: %v", i, r.Err)
		}
	}
	tc.server.SetDraining(false)

	// Nothing in the shed frame was applied: no put, no delete.
	if v, err := c.Get("a"); err != nil || !bytes.Equal(v, []byte("old")) {
		t.Fatalf(`Get("a"): %q, %v — shed batch must not apply its delete`, v, err)
	}
	if _, err := c.Get("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf(`Get("b"): %v — shed batch must not apply its put`, err)
	}
	// The burned oid does not desync the session: a fresh batch applies.
	res, err = c.Batch([]BatchOp{{Kind: BatchPut, Key: "b", Value: []byte("new")}})
	if err != nil || res[0].Err != nil {
		t.Fatalf("Batch after drain lifted: %v, %v", err, res)
	}
	// A frame carrying a write sheds as a write.
	if st := tc.server.Stats(); st.ShedWrites == 0 {
		t.Errorf("ShedWrites = 0, want > 0")
	}
}

func TestBatchDeadlineSpentParentFailsFast(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	before := tc.server.Stats()

	ops := []BatchOp{
		{Kind: BatchPut, Key: "k", Value: []byte("v")},
		{Kind: BatchGet, Key: "k"},
	}
	start := time.Now()
	_, err := c.BatchContext(deadlineCtx(t, time.Now().Add(-time.Second)), ops)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("spent parent deadline: got %v, want ErrTimeout", err)
	}
	if errors.Is(err, ErrUnconfirmed) {
		t.Errorf("nothing was sent, so nothing can be unconfirmed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("fail-fast took %v — the doomed batch must not wait out a timeout", elapsed)
	}

	// Nothing reached the server and nothing was applied.
	after := tc.server.Stats()
	if after.Batches != before.Batches || after.Puts != before.Puts {
		t.Errorf("server saw traffic for a spent-deadline batch: %+v -> %+v", before, after)
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get: %v — spent-deadline batch must not apply", err)
	}

	// The session is untouched: the same ops apply normally afterwards,
	// both with a live parent deadline and with no parent bound at all.
	res, err := c.BatchContext(deadlineCtx(t, time.Now().Add(5*time.Second)), ops)
	if err != nil || res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("BatchContext with live parent: %v, %v", err, res)
	}
	res, err = c.BatchContext(context.Background(), []BatchOp{{Kind: BatchGet, Key: "k"}})
	if err != nil || res[0].Err != nil || !bytes.Equal(res[0].Value, []byte("v")) {
		t.Fatalf("BatchContext with no parent deadline: %v, %v", err, res)
	}
}

// deadlineCtx is a ctx that carries only the given deadline.
func deadlineCtx(t *testing.T, d time.Time) context.Context {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// TestBatchDeadlineCoversBackpressureWait pins the deadline-stamping
// order: the effective deadline is fixed at entry, before any wait, so a
// parent spent by the time the frame could be sent fails fast with
// ErrTimeout and nothing is applied (the alternative — stamping after the
// wait — quietly extends the parent's budget under backpressure, exactly
// when deadlines matter most).
func TestBatchDeadlineCoversBackpressureWait(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()

	// A parent that is nearly — but not yet — expired at entry. The
	// spent-deadline fast path does not trigger; only the stamped
	// deadline inside the drain/send path can surface ErrTimeout.
	parent := time.Now().Add(200 * time.Microsecond)
	time.Sleep(time.Millisecond)
	// Parent is now spent. The op must fail fast with ErrTimeout even
	// though the client could send immediately.
	_, err := c.BatchContext(deadlineCtx(t, parent), []BatchOp{{Kind: BatchPut, Key: "x", Value: []byte("v")}})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout for a parent spent before entry", err)
	}
	if _, err := c.Get("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get: %v — doomed batch must not apply", err)
	}
}

// TestCancelDuringReadBackoffSendsNothing: a ctx cancelled while a read
// backs off between attempts ends the read at once with ErrTimeout joined
// with context.Canceled, and no further attempt reaches the server
// (PROTOCOL.md §9) — for a Get and a Batch of gets alike. The server's
// replies are held back, so every attempt runs out its slice of the
// budget: a 1 s slice (3 s over three attempts), then a backoff of at
// least 0.5 s that the cancel must cut short.
func TestCancelDuringReadBackoffSendsNothing(t *testing.T) {
	const slice, retryBase = time.Second, time.Second
	tc := newCluster(t, ServerConfig{})
	replies := faultfab.New(faultfab.Config{Seed: 1})
	tc.wrapSrv = func(c rdma.Conn) rdma.Conn { return replies.Wrap(c, faultfab.S2C, "server") }
	c := tc.connect(func(cfg *ClientConfig) { cfg.Timeout, cfg.ReadRetries, cfg.RetryBase = 3*slice, 2, retryBase })
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	replies.Partition(faultfab.S2C)
	t.Cleanup(func() { replies.Heal(faultfab.S2C) })
	for _, r := range []struct {
		name string
		ops  uint64 // gets one frame carries
		read func(context.Context) error
	}{
		{"get", 1, func(ctx context.Context) error {
			_, err := c.GetContext(ctx, "k")
			return err
		}},
		{"batch of gets", 2, func(ctx context.Context) error {
			_, err := c.BatchContext(ctx, []BatchOp{{Kind: BatchGet, Key: "k"}, {Kind: BatchGet, Key: "k"}})
			return err
		}},
	} {
		gets := tc.server.Stats().Gets
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			for tc.server.Stats().Gets == gets {
				time.Sleep(time.Millisecond)
			}
			cancel() // the first attempt is on the wire: its slice runs out, then the backoff sees the cancel
		}()
		start := time.Now()
		err := r.read(ctx)
		if d := time.Since(start); d >= slice+retryBase/2 {
			t.Errorf("%s: returned after %v, want at the end of its first slice (%v)", r.name, d, slice)
		}
		if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: %v, want ErrTimeout joined with context.Canceled", r.name, err)
		}
		if n := tc.server.Stats().Gets - gets; n != r.ops {
			t.Errorf("%s: the server saw %d gets, want one frame's %d: nothing is sent after the cancel", r.name, n, r.ops)
		}
	}
}
