package cluster

// The one route through the cluster client, pinned: the two defects the
// route's ownership rules close, the metamorphic table that says group size
// and work-list shape change no outcome, and the structural property that a
// group of one — and any read — starts no goroutine.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"time"

	"precursor/internal/audit"
	"precursor/internal/core"
)

// heldBackend is a healthy replica whose writes wait for the gate: the
// straggler a quorum write returns ahead of.
type heldBackend struct {
	*fakeBackend
	gate chan struct{}
}

func (b heldBackend) PutContext(ctx context.Context, key string, value []byte) error {
	<-b.gate
	return b.fakeBackend.PutContext(ctx, key, value)
}

func (b heldBackend) BatchContext(ctx context.Context, ops []core.BatchOp) ([]core.BatchResult, error) {
	<-b.gate
	return b.fakeBackend.BatchContext(ctx, ops)
}

// TestStragglerNeverReadsCallerMemory: with W < R a write returns at quorum
// while a slow replica has yet to send. The caller owns its buffers again
// the moment the call returns, so what the straggler stores must be the
// bytes the call was given, not whatever the buffer holds by then — as a
// single put and as a batch.
func TestStragglerNeverReadsCallerMemory(t *testing.T) {
	for _, mode := range []string{"put", "batch"} {
		t.Run(mode, func(t *testing.T) {
			gate := make(chan struct{})
			slow := newFake()
			c, err := NewReplicated([]ReplicaGroup{{Name: "group-0", Replicas: []Shard{
				{Name: "group-0/r0", Backend: newFake()},
				{Name: "group-0/r1", Backend: newFake()},
				{Name: "group-0/r2", Backend: heldBackend{slow, gate}},
			}}}, Options{WriteQuorum: 2, DisableAutoRepair: true})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			bufs := [][]byte{[]byte("original-a"), []byte("original-b")}
			keys := []string{"ka", "kb"}
			if mode == "put" {
				bufs, keys = bufs[:1], keys[:1]
			}
			done := make(chan error, 1)
			go func() {
				if mode == "put" {
					done <- c.Put(keys[0], bufs[0])
					return
				}
				res, err := c.Batch(batchOps(core.BatchPut, keys, bufs...))
				for _, r := range res {
					err = errors.Join(err, r.Err)
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("write at quorum: %v", err)
				}
			case <-time.After(5 * time.Second):
				close(gate)
				t.Fatal("the write waited for the straggler instead of returning at quorum")
			}
			for _, b := range bufs {
				copy(b, "SCRIBBLE")
			}
			close(gate)
			for i, k := range keys {
				want := []string{"original-a", "original-b"}[i]
				waitFor(t, "the straggler to store "+k, func() bool { _, ok := slow.get(k); return ok })
				if v, _ := slow.get(k); string(v) != want {
					t.Errorf("straggler stored %q under %s, want %q: it read the caller's buffer after the call returned", v, k, want)
				}
			}
		})
	}
}

// TestHedgeSkipsReplicasItAlreadyAsked: a hedged read whose primary answers
// with a payload that fails its MAC — before the hedge timer fires — falls
// back to the walk, which must not ask that replica again: one read and
// one byzantine_failover audit record per detection, and the read is
// served by the other replica.
func TestHedgeSkipsReplicasItAlreadyAsked(t *testing.T) {
	log := audit.New(64)
	c, slow, _ := newHedgeGroup(t, Options{HedgeReads: true, HedgeMinDelay: time.Second, RetryBackoff: 2 * time.Second, Audit: log})
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	pinPrimary(c) // "slow" is asked first; the hedge would fire after a second
	slow.setFail(core.ErrIntegrity)
	before := slow.calls.Load()
	if v, err := c.Get("k"); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v, want the healthy replica's value", v, err)
	}
	if n := slow.calls.Load() - before; n != 1 {
		t.Errorf("the Byzantine primary was read %d times for one get, want 1", n)
	}
	if n := log.CountsByKind()[audit.KindByzantineFailover]; n != 1 {
		t.Errorf("%d byzantine_failover audit records for one detection, want 1", n)
	}
	if st := c.Stats(); st.Failovers != 1 || st.HedgesLaunched != 0 {
		t.Errorf("failovers = %d, hedges launched = %d, want 1 and 0", st.Failovers, st.HedgesLaunched)
	}
}

// step is one line of the metamorphic script: an operation, or a change to
// the world the operations run in.
type step struct {
	what    string // "op", "fail" (replica's fault becomes err), "elapse" (every backoff runs out) or "repair"
	op      core.BatchOp
	replica int
	err     error
}

// metamorphicScript draws the one seeded sequence every mode replays.
func metamorphicScript(replicas int) []step {
	faults := []error{
		nil, nil, nil, nil, // healed
		core.ErrClosed, // shard-level
		fmt.Errorf("%w; %w", core.ErrReplay, core.ErrUnconfirmed), // ambiguous
		core.ErrTooLarge,  // data-level
		core.ErrIntegrity, // integrity
	}
	rng := rand.New(rand.NewPCG(23, 1))
	var script []step
	for i := 0; i < 400; i++ {
		switch r := rng.IntN(100); {
		case r < 8:
			script = append(script, step{what: "fail", replica: rng.IntN(replicas), err: faults[rng.IntN(len(faults))]})
		case r < 16:
			script = append(script, step{what: "elapse"})
		case r < 28:
			script = append(script, step{what: "repair"})
		default:
			op := core.BatchOp{Kind: core.BatchOpKind(1 + rng.IntN(3)), Key: fmt.Sprintf("k%d", rng.IntN(8))}
			if op.Kind == core.BatchPut {
				op.Value = []byte(fmt.Sprintf("v%d", i))
			}
			script = append(script, step{what: "op", op: op})
		}
	}
	return script
}

// outcome is everything a replay leaves behind that the table compares.
type outcome struct {
	ops      []string // per op: value and error
	stats    Stats
	replicas []string // per replica: breaker and repair state, journal included
}

// replay runs the script against a fresh client over a group of fresh fakes
// — ops one at a time as Put/Get/Delete calls (frame 0) or in batches of up
// to frame consecutive ops — and snapshots what it left.
func replay(t *testing.T, script []step, replicas, frame int) outcome {
	t.Helper()
	hub := &fakeRepairHub{backends: map[string]*fakeBackend{}, gen: map[string]uint64{}}
	fakes := make([]*fakeBackend, replicas)
	shards := make([]Shard, replicas)
	for i := range fakes {
		fakes[i] = newFake()
		shards[i] = Shard{Name: fmt.Sprintf("g/r%d", i), Backend: fakes[i]}
		hub.backends[shards[i].Name] = fakes[i]
	}
	// Backoffs elapse and repair runs only when the script says so.
	c, err := NewReplicated([]ReplicaGroup{{Name: shards[0].Name, Replicas: shards}}, Options{DisableAutoRepair: true, RetryBackoff: time.Hour, MaxBackoff: time.Hour, JournalCap: 6, OpenRepair: hub.open})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g := c.groups[c.order[0]]
	var out outcome
	var pending []core.BatchOp
	wrote := false
	flush := func() {
		if len(pending) == 0 {
			return
		}
		for _, rep := range g.replicas {
			rep.ewma.Store(0) // reads ask in group order, not in order of measured speed
		}
		var res []core.BatchResult
		if frame == 0 {
			res = make([]core.BatchResult, 1)
			switch op := pending[0]; op.Kind {
			case core.BatchPut:
				res[0].Err = c.Put(op.Key, op.Value)
			case core.BatchGet:
				res[0].Value, res[0].Err = c.Get(op.Key)
			default:
				res[0].Err = c.Delete(op.Key)
			}
		} else if res, err = c.Batch(pending); err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			out.ops = append(out.ops, fmt.Sprintf("%d %s = %q, %v", pending[i].Kind, pending[i].Key, r.Value, r.Err))
			wrote = wrote || pending[i].Kind != core.BatchGet
		}
		pending = pending[:0]
		if wrote {
			// A write returns at quorum: let its stragglers report, so the
			// next step meets the same world in every mode.
			waitFor(t, "the fan-out record to come back", func() bool {
				g.fanMu.Lock()
				defer g.fanMu.Unlock()
				return len(g.fanFree) > 0
			})
		}
	}
	for _, s := range script {
		if s.what != "op" {
			flush()
		}
		switch s.what {
		case "op":
			if pending = append(pending, s.op); len(pending) >= max(frame, 1) {
				flush()
			}
		case "fail":
			fakes[s.replica].setFail(s.err)
		case "elapse":
			for _, rep := range g.replicas {
				rep.mu.Lock()
				rep.retryAt = time.Time{}
				rep.mu.Unlock()
			}
		case "repair":
			// One scan of the repair loop, run here instead of in its
			// goroutines; the loop leaves a group of one alone.
			if g.single() {
				break
			}
			for _, rep := range g.replicas {
				rep.mu.Lock()
				tok, probe := rep.probeLocked()
				repair := !rep.down && rep.repairing
				rep.mu.Unlock()
				if probe {
					c.probeReplica(rep, tok)
				} else if repair {
					_ = c.runRepair(g, rep) // a repair that cannot finish leaves the same state in every mode
				}
			}
		}
	}
	flush()
	out.stats = c.Stats()
	for i := range out.stats.Shards {
		out.stats.Shards[i].Latency = ShardStats{}.Latency // timing is not an outcome
	}
	for _, rep := range g.replicas {
		rep.mu.Lock()
		out.replicas = append(out.replicas, fmt.Sprintf("%s down=%v probing=%v failures=%d epoch=%d repairing=%v fullsync=%v drop=%v journal=%q",
			rep.name, rep.down, rep.probing, rep.failures, rep.epoch, rep.repairing, rep.needsFullSync, rep.journalDrop, rep.journal))
		rep.mu.Unlock()
	}
	return out
}

// TestOneRouteMetamorphic replays one seeded sequence of puts, gets and
// deletes, with shard-level, ambiguous, data-level and integrity faults
// injected between them, and requires identical per-op outcomes, Stats
// counters, breaker states and journals from every pair of modes that the
// one route makes equivalent: single ops against batches of one, on a
// group of one and on an R = 3 group. The script's world is deterministic:
// replay owns the clock and the repair loop.
func TestOneRouteMetamorphic(t *testing.T) {
	same := func(t *testing.T, a, b outcome) {
		t.Helper()
		if len(a.ops) != len(b.ops) {
			t.Fatalf("%d outcomes against %d", len(a.ops), len(b.ops))
		}
		for i := range a.ops {
			if a.ops[i] != b.ops[i] {
				t.Fatalf("op %d:\n  %s\n  %s", i, a.ops[i], b.ops[i])
			}
		}
		if !reflect.DeepEqual(a.stats, b.stats) {
			t.Errorf("stats differ:\n  %+v\n  %+v", a.stats, b.stats)
		}
		if !reflect.DeepEqual(a.replicas, b.replicas) {
			t.Errorf("replica states differ:\n  %q\n  %q", a.replicas, b.replicas)
		}
		st := a.stats
		t.Logf("puts=%d gets=%d deletes=%d errors=%d shortfalls=%d failovers=%d, at the end: %v",
			st.Puts, st.Gets, st.Deletes, st.Errors, st.QuorumShortfalls, st.Failovers, a.replicas)
	}
	t.Run("single-vs-batch-of-one-R1", func(t *testing.T) {
		one := metamorphicScript(1)
		same(t, replay(t, one, 1, 0), replay(t, one, 1, 1))
	})
	t.Run("single-vs-batch-of-one-R3", func(t *testing.T) {
		three := metamorphicScript(3)
		a, b := replay(t, three, 3, 0), replay(t, three, 3, 1)
		same(t, a, b)
		// The script must have exercised what it claims to compare.
		if st := a.stats; st.QuorumShortfalls == 0 || st.Failovers == 0 || st.Puts == 0 || st.Gets == 0 {
			t.Errorf("the script never reached a shortfall, a failover or a served op")
		}
	})
}

// TestGroupOfOneStartsNoGoroutine: a fan-out that admitted one replica runs
// on its caller's goroutine, and so does a batch with one sub-batch and
// every read — so after a thousand rounds the process has exactly the
// goroutines it started with (a parked writer, or a hand-off per op, would
// show). The same holds for the reads of an R = 2 client, whose writes have
// parked their writers before the baseline is taken.
func TestGroupOfOneStartsNoGoroutine(t *testing.T) {
	mixed := []core.BatchOp{
		{Kind: core.BatchPut, Key: "a", Value: []byte("1")},
		{Kind: core.BatchGet, Key: "a"},
		{Kind: core.BatchDelete, Key: "b"},
	}
	reads := batchOps(core.BatchGet, []string{"a", "b", "c"})
	check := func(t *testing.T, c *Client, baseline int, round func(i int)) {
		t.Helper()
		for i := 0; i < 1000; i++ {
			round(i)
			if n := runtime.NumGoroutine(); n > baseline {
				t.Fatalf("round %d: %d goroutines, %d at the baseline", i, n, baseline)
			}
		}
	}
	t.Run("one-shard", func(t *testing.T) {
		c, _ := newFakeCluster(t, 1, Options{})
		baseline := runtime.NumGoroutine()
		check(t, c, baseline, func(i int) {
			_ = c.Put("a", []byte("v"))
			_, _ = c.Get("a")
			_ = c.Delete("b")
			if _, err := c.Batch(mixed); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("R2-reads", func(t *testing.T) {
		c, _, _ := newReplicatedFakes(t, 2, false, Options{DisableAutoRepair: true})
		if err := c.Put("a", []byte("v")); err != nil {
			t.Fatal(err)
		}
		baseline := runtime.NumGoroutine()
		check(t, c, baseline, func(i int) {
			_, _ = c.Get("a")
			if _, err := c.Batch(reads); err != nil {
				t.Fatal(err)
			}
		})
	})
}
