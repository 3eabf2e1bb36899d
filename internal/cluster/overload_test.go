package cluster

// Overload-protection behavior at the cluster layer: budget-guarded
// hedged reads (a slow primary is raced against the next healthy
// replica; an empty retry budget suppresses the hedge), RETRY_LATER
// as a non-failure (it must never trip a shard breaker), and parent
// deadlines cutting off batch fan-out before doomed work is issued.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"precursor/internal/core"
	"precursor/internal/overload"
)

// newHedgeGroup builds a one-group, two-replica client whose slow
// replica can be delayed per-test. pinPrimary makes the slow replica
// the read primary deterministically: readOrder sorts by latency
// EWMA, so the test pins the slow replica's estimate below the fast
// one's — the interesting hedge scenario is exactly a primary whose
// estimate has not (yet) caught up with its actual tail.
func pinPrimary(c *Client) {
	c.reps["group-0/slow"].ewma.Store(int64(time.Millisecond))
	c.reps["group-0/fast"].ewma.Store(int64(2 * time.Millisecond))
}

// earnHedge reads key ten times: a client hedges only on tokens its
// successful reads deposited, one per ten.
func earnHedge(t *testing.T, c *Client, key string) {
	t.Helper()
	for i := 0; i < 10; i++ {
		if _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
}

func newHedgeGroup(t *testing.T, opts Options) (*Client, *fakeBackend, *fakeBackend) {
	t.Helper()
	slow, fast := newFake(), newFake()
	opts.DisableAutoRepair = true
	c, err := NewReplicated([]ReplicaGroup{{
		Name: "group-0",
		Replicas: []Shard{
			{Name: "group-0/slow", Backend: slow},
			{Name: "group-0/fast", Backend: fast},
		},
	}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, slow, fast
}

func TestHedgedReadWinsOverSlowPrimary(t *testing.T) {
	c, slow, _ := newHedgeGroup(t, Options{
		HedgeReads:    true,
		HedgeMinDelay: time.Millisecond,
	})
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	earnHedge(t, c, "k")
	pinPrimary(c)

	const primaryDelay = 150 * time.Millisecond
	slow.getDelay.Store(int64(primaryDelay))
	start := time.Now()
	v, err := c.Get("k")
	elapsed := time.Since(start)
	if err != nil || string(v) != "v" {
		t.Fatalf("Get: %q, %v", v, err)
	}
	// The hedge fires at ~3x the primary's pinned EWMA and the fast
	// replica answers immediately — far inside the primary's injected
	// delay.
	if elapsed >= primaryDelay {
		t.Errorf("hedged Get took %v, want well under the primary's %v delay", elapsed, primaryDelay)
	}
	st := c.Stats()
	if st.HedgesLaunched == 0 {
		t.Errorf("HedgesLaunched = 0, want > 0")
	}
	if st.HedgesWon == 0 {
		t.Errorf("HedgesWon = 0, want > 0 (the fast replica must win the race)")
	}
}

func TestHedgeDeniedWhenBudgetEmpty(t *testing.T) {
	budget := overload.NewRetryBudget(4, 0.1)
	for budget.TrySpend() {
		// Drain the bucket so every hedge attempt is refused.
	}
	c, slow, _ := newHedgeGroup(t, Options{
		HedgeReads:    true,
		HedgeMinDelay: time.Millisecond,
		Budget:        budget,
	})
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	pinPrimary(c)

	const primaryDelay = 30 * time.Millisecond
	slow.getDelay.Store(int64(primaryDelay))
	start := time.Now()
	v, err := c.Get("k")
	elapsed := time.Since(start)
	if err != nil || string(v) != "v" {
		t.Fatalf("Get: %q, %v", v, err)
	}
	// No budget, no hedge: the read waits out the primary. This
	// refusal is what keeps tail-latency insurance from becoming a
	// read storm under overload.
	if elapsed < primaryDelay {
		t.Errorf("Get took %v, want >= %v — a denied hedge must wait for the primary", elapsed, primaryDelay)
	}
	st := c.Stats()
	if st.HedgesLaunched != 0 {
		t.Errorf("HedgesLaunched = %d, want 0", st.HedgesLaunched)
	}
	if st.HedgesDenied == 0 {
		t.Errorf("HedgesDenied = 0, want > 0")
	}
}

// TestHedgesOnlyOnEarnedTokens: every read of this client has a slow
// primary and would hedge, but hedges spend only what successful reads
// earned — none before the tenth success, at most one read in ten after.
// The retry budget's standing allowance is not theirs to spend.
func TestHedgesOnlyOnEarnedTokens(t *testing.T) {
	c, slow, _ := newHedgeGroup(t, Options{HedgeReads: true, HedgeMinDelay: time.Millisecond})
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	slow.getDelay.Store(int64(10 * time.Millisecond))
	const reads = 100
	for i := 1; i <= reads; i++ {
		pinPrimary(c)
		if v, err := c.Get("k"); err != nil || string(v) != "v" {
			t.Fatalf("Get %d = %q, %v", i, v, err)
		}
		// Read i hedges only on what reads 1..i-1 earned.
		if n := c.Stats().HedgesLaunched; n > uint64((i-1)/10) {
			t.Fatalf("%d hedges launched by read %d, want at most %d", n, i, (i-1)/10)
		}
	}
	st := c.Stats()
	if st.HedgesLaunched == 0 {
		t.Fatal("no hedge launched once reads had earned tokens")
	}
	if st.RetryBudget.Tokens < overload.DefaultBudgetMax-1 {
		t.Errorf("hedges spent the standing allowance: %.1f tokens left of %d", st.RetryBudget.Tokens, overload.DefaultBudgetMax)
	}
	t.Logf("%d hedges over %d reads", st.HedgesLaunched, reads)
}

func TestHedgedReadsRepeatedlyConsistent(t *testing.T) {
	c, slow, _ := newHedgeGroup(t, Options{
		HedgeReads:    true,
		HedgeMinDelay: time.Millisecond,
	})
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := c.Put(key, []byte(key)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	earnHedge(t, c, "k0")
	pinPrimary(c)
	slow.getDelay.Store(int64(20 * time.Millisecond))
	// Losing stragglers from earlier hedges must not corrupt later
	// reads (each hedge's reply channel is buffered to the attempt
	// count, and the loser's reply is simply dropped with it).
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			key := fmt.Sprintf("k%d", i)
			v, err := c.Get(key)
			if err != nil || string(v) != key {
				t.Fatalf("round %d Get(%s): %q, %v", round, key, v, err)
			}
		}
	}
	if st := c.Stats(); st.HedgesWon == 0 {
		t.Errorf("HedgesWon = 0, want > 0 across %d delayed reads", 24)
	}
}

func TestRetryLaterDoesNotTripBreaker(t *testing.T) {
	c, backends := newFakeCluster(t, 1, Options{})
	var b *fakeBackend
	for _, fb := range backends {
		b = fb
	}
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}

	// The shard sheds: every op comes back RETRY_LATER. That is
	// back-pressure, not an outage — the breaker must stay closed and
	// the error must surface to the caller with its hint intact.
	b.setFail(&core.RetryLaterError{Hint: 5 * time.Millisecond})
	for i := 0; i < 10; i++ {
		_, err := c.Get("k")
		if !errors.Is(err, core.ErrRetryLater) {
			t.Fatalf("Get: got %v, want ErrRetryLater", err)
		}
		var rl *core.RetryLaterError
		if !errors.As(err, &rl) || rl.Hint != 5*time.Millisecond {
			t.Fatalf("backoff hint lost through the cluster layer: %v", err)
		}
	}
	if deg := c.Degraded(); len(deg) != 0 {
		t.Fatalf("Degraded() = %v — RETRY_LATER must not trip the breaker", deg)
	}

	// The moment the shard stops shedding, ops flow again with no
	// probe/backoff dance (the breaker never opened).
	b.setFail(nil)
	if v, err := c.Get("k"); err != nil || string(v) != "v" {
		t.Fatalf("Get after shed cleared: %q, %v", v, err)
	}
}

func TestBatchDeadlineExpiredParentDoesNotFanOut(t *testing.T) {
	c, backends := newFakeCluster(t, 1, Options{})
	ops := []core.BatchOp{
		{Kind: core.BatchPut, Key: "a", Value: []byte("1")},
		{Kind: core.BatchPut, Key: "b", Value: []byte("2")},
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := c.BatchContext(ctx, ops)
	if err != nil {
		t.Fatalf("BatchContext: %v", err)
	}
	for i, r := range res {
		if !errors.Is(r.Err, core.ErrTimeout) || errors.Is(r.Err, core.ErrUnconfirmed) {
			t.Errorf("op %d: got %v, want a plain ErrTimeout", i, r.Err)
		}
	}
	for _, b := range backends {
		if n := b.batchCalls.Load() + b.calls.Load(); n != 0 {
			t.Fatalf("backend saw %d calls — a spent parent must not fan out", n)
		}
	}
}

func TestBatchDeadlinePropagatesToBackend(t *testing.T) {
	c, backends := newFakeCluster(t, 1, Options{})
	parent := time.Now().Add(5 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), parent)
	defer cancel()
	res, err := c.BatchContext(ctx, []core.BatchOp{{Kind: core.BatchPut, Key: "a", Value: []byte("1")}})
	if err != nil || res[0].Err != nil {
		t.Fatalf("BatchContext: %v, %v", err, res)
	}
	for _, b := range backends {
		if len(b.deadlines) != 1 || !b.deadlines[0].Equal(parent) {
			t.Errorf("backend saw deadlines %v, want exactly the parent's %v", b.deadlines, parent)
		}
	}
}
