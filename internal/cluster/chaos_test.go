package cluster_test

// Chaos invariant suite for the sharded client path: a real in-process
// deployment of groups of one over the TCP fabric, dialed through the root
// DialReplicatedCluster with the fault-injection fabric (internal/faultfab)
// interposed on every client connection via DialConfig.WrapConn. The
// suite checks the cluster-level versions of the ISSUE 2 invariants:
//
//  1. An acknowledged put is never lost, even as operations hop between
//     pooled connections and shards trip their breakers.
//  2. A get never returns a value failing its MAC (corruption surfaces
//     as ErrIntegrity, never as data).
//  3. Every perturbed operation maps to a typed error (ErrTimeout,
//     ErrReplay, ErrUnconfirmed, ErrClosed, ErrShardDown, ErrBadResponse) — never
//     silent success, never an untyped failure.
//  4. A partitioned shard trips its breaker (fail-fast ShardError) while
//     healthy shards keep serving, and the breaker closes again after
//     heal via a single successful probe.
//
// The per-key model is the same candidate-set argument as the core
// suite, with one extra fact doing the work across pooled connections:
// every injected delivery delay (≤ 2×MaxDelay = 20ms) is far below the
// operation timeout (150ms), so by the time an operation returns — ack
// or timeout — its request frame has landed or died. Operations on one
// key are sequential per worker, so an acknowledged response still
// resolves every older maybe-applied write even when the next operation
// uses a different pooled connection.
//
// A failing run reprints the fabric seed; rerun with -faultseed=<seed>
// (same -chaosops) to redraw the schedule.

import (
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"precursor"
	"precursor/internal/core"
	"precursor/internal/faultfab"
)

var (
	faultSeed = flag.Uint64("faultseed", 0xC0FFEE, "fault-injection schedule seed; a failing chaos run prints the seed that reproduces it")
	chaosOps  = flag.Int("chaosops", 3000, "total operations the chaos suite drives through the faulty cluster")
)

// absentVal marks "key not present" in a candidate set.
const absentVal = ""

const (
	clusterShards    = 3
	clusterWorkers   = 6
	clusterKeys      = 4 // per worker; workers use disjoint key spaces
	clusterOpTimeout = 150 * time.Millisecond
	clusterBackoff   = 100 * time.Millisecond
	clusterMaxBack   = 500 * time.Millisecond
)

// clusterChaosConfig faults only the ring traffic (ClassWrite) and only
// client→server: the server side of a TCP connection cannot be wrapped,
// and the bootstrap SENDs are left clean so pool redials stay reliable.
// The tiny Reset rate kills connections outright, exercising the pool's
// discard-and-redial path under load.
func clusterChaosConfig(seed uint64) faultfab.Config {
	ring := faultfab.ClassProbs{
		Drop: 0.05, Dup: 0.02, Corrupt: 0.01, Delay: 0.05, Reset: 0.002,
		MaxDelay: 10 * time.Millisecond,
	}
	return faultfab.Config{
		Seed: seed,
		C2S:  faultfab.ClassMap{faultfab.ClassWrite: ring},
	}
}

// clusterHarness is a live cluster, its fault fabric(s), and the shared
// failure latch.
type clusterHarness struct {
	t     *testing.T
	svc   *precursor.ReplicatedClusterService
	specs [][]precursor.ShardSpec
	ffab  *faultfab.Fabric
	cc    *precursor.ClusterClient

	stop    atomic.Bool
	mu      sync.Mutex
	failure string

	ops, acked, transient, integrity atomic.Uint64
}

// newClusterHarness serves clusterShards shards and dials them through
// wrap (nil = raw connections).
func newClusterHarness(t *testing.T, ffab *faultfab.Fabric, connsPerShard int, wrap func(precursor.Conn) precursor.Conn) *clusterHarness {
	t.Helper()
	svc, err := precursor.ServeReplicatedCluster(clusterShards, 1, precursor.ServerConfig{
		Workers:      4,
		PollInterval: time.Microsecond,
	})
	if err != nil {
		t.Fatalf("ServeReplicatedCluster: %v", err)
	}
	t.Cleanup(svc.Close)

	specs := svc.GroupSpecs()
	cc, err := precursor.DialReplicatedCluster(specs, precursor.ClusterConfig{
		ConnsPerShard: connsPerShard,
		Timeout:       clusterOpTimeout,
		RetryBackoff:  clusterBackoff,
		MaxBackoff:    clusterMaxBack,
		WrapConn:      wrap,
	})
	if err != nil {
		t.Fatalf("DialReplicatedCluster: %v", err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	return &clusterHarness{t: t, svc: svc, specs: specs, ffab: ffab, cc: cc}
}

// fail records the first invariant violation with its reproduction line
// and stops every worker.
func (h *clusterHarness) fail(format string, args ...any) {
	h.mu.Lock()
	if h.failure == "" {
		h.failure = fmt.Sprintf(format, args...) + fmt.Sprintf(
			"\nreproduce: go test ./internal/cluster/ -run TestChaosCluster -faultseed=%d -chaosops=%d\nfabric: %s",
			h.ffab.Seed(), *chaosOps, h.ffab.Summary())
	}
	h.mu.Unlock()
	h.stop.Store(true)
}

func (h *clusterHarness) check(t *testing.T) {
	t.Helper()
	h.mu.Lock()
	failure := h.failure
	h.mu.Unlock()
	if failure != "" {
		t.Fatal(failure)
	}
}

// transientErr reports outcomes invariant 3 allows for perturbed ops.
// ErrBadResponse is a frame the enclave refused under seal (a corrupted
// header it caught): nothing applied, nothing learned.
func transientErr(err error) bool {
	return errors.Is(err, precursor.ErrTimeout) || errors.Is(err, precursor.ErrReplay) ||
		errors.Is(err, precursor.ErrUnconfirmed) || errors.Is(err, precursor.ErrClosed) ||
		errors.Is(err, precursor.ErrShardDown) || errors.Is(err, core.ErrBadResponse)
}

// clusterWorker drives sequential mixed operations over its own key
// space through the shared cluster client, maintaining per-key candidate
// sets exactly as the core chaos suite does.
type clusterWorker struct {
	h     *clusterHarness
	id    int
	rng   *rand.Rand
	model map[string]map[string]bool
}

func newClusterWorker(h *clusterHarness, id int) *clusterWorker {
	w := &clusterWorker{
		h:     h,
		id:    id,
		rng:   rand.New(rand.NewPCG(h.ffab.Seed(), uint64(id))),
		model: make(map[string]map[string]bool, clusterKeys),
	}
	for k := 0; k < clusterKeys; k++ {
		w.model[w.key(k)] = map[string]bool{absentVal: true}
	}
	return w
}

func (w *clusterWorker) key(k int) string { return fmt.Sprintf("w%d-k%d", w.id, k) }

func (w *clusterWorker) value(key string, op int) string {
	return fmt.Sprintf("%s-o%d|", key, op) + strings.Repeat("x", w.rng.IntN(1024))
}

func (w *clusterWorker) run(ops int) {
	for op := 0; op < ops; op++ {
		if w.h.stop.Load() {
			return
		}
		key := w.key(w.rng.IntN(clusterKeys))
		r := w.rng.Float64()
		var err error
		switch {
		case r < 0.35:
			err = w.doPut(key, op)
		case r < 0.50:
			err = w.doDelete(key)
		default:
			err = w.doGet(key)
		}
		w.h.ops.Add(1)
		if err != nil && transientErr(err) {
			w.h.transient.Add(1)
		}
	}
}

func (w *clusterWorker) doPut(key string, op int) error {
	v := w.value(key, op)
	err := w.h.cc.Put(key, []byte(v))
	switch {
	case err == nil:
		w.model[key] = map[string]bool{v: true}
		w.h.acked.Add(1)
	case errors.Is(err, precursor.ErrUnconfirmed), errors.Is(err, precursor.ErrClosed):
		// Maybe applied: the frame may have landed before the fault.
		w.model[key][v] = true
	case transientErr(err):
		// Never admitted (breaker open, pool acquire timed out): the
		// request was not sent, so the model is unchanged.
	default:
		w.h.fail("worker %d: Put(%s) returned disallowed error: %v", w.id, key, err)
	}
	return err
}

func (w *clusterWorker) doDelete(key string) error {
	err := w.h.cc.Delete(key)
	switch {
	case err == nil:
		w.model[key] = map[string]bool{absentVal: true}
		w.h.acked.Add(1)
	case errors.Is(err, precursor.ErrNotFound):
		if !w.model[key][absentVal] {
			w.h.fail("worker %d: Delete(%s) says not-found but candidates are %v", w.id, key, candidates(w.model[key]))
			return err
		}
		w.model[key] = map[string]bool{absentVal: true}
	case errors.Is(err, precursor.ErrUnconfirmed), errors.Is(err, precursor.ErrClosed):
		w.model[key][absentVal] = true
	case transientErr(err):
	default:
		w.h.fail("worker %d: Delete(%s) returned disallowed error: %v", w.id, key, err)
	}
	return err
}

func (w *clusterWorker) doGet(key string) error {
	v, err := w.h.cc.Get(key)
	switch {
	case err == nil:
		if !w.model[key][string(v)] {
			w.h.fail("worker %d: Get(%s) returned %q, not among candidates %v",
				w.id, key, truncate(string(v)), candidates(w.model[key]))
			return nil
		}
		w.model[key] = map[string]bool{string(v): true}
		w.h.acked.Add(1)
	case errors.Is(err, precursor.ErrNotFound):
		if !w.model[key][absentVal] {
			w.h.fail("worker %d: Get(%s) says not-found but candidates are %v", w.id, key, candidates(w.model[key]))
			return err
		}
		w.model[key] = map[string]bool{absentVal: true}
	case errors.Is(err, precursor.ErrIntegrity):
		// Tamper evidence working as designed (a corrupted put frame
		// poisoned the stored blob; the MAC check refused to return it).
		w.h.integrity.Add(1)
	case transientErr(err):
	default:
		w.h.fail("worker %d: Get(%s) returned disallowed error: %v", w.id, key, err)
	}
	return err
}

// verify reads every key back after the storm, riding out breaker
// backoffs; any returned answer must be legal.
func (w *clusterWorker) verify() {
	for k := 0; k < clusterKeys; k++ {
		for attempt := 0; attempt < 20; attempt++ {
			if w.h.stop.Load() {
				return
			}
			err := w.doGet(w.key(k))
			if err == nil || errors.Is(err, precursor.ErrNotFound) || errors.Is(err, precursor.ErrIntegrity) {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

func candidates(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for v := range set {
		if v == absentVal {
			out = append(out, "<absent>")
		} else {
			out = append(out, truncate(v))
		}
	}
	return out
}

func truncate(s string) string {
	if i := strings.IndexByte(s, '|'); i >= 0 {
		return s[:i+1] + "…"
	}
	if len(s) > 48 {
		return s[:48] + "…"
	}
	return s
}

// TestChaosClusterPath drives concurrent mixed operations through a
// live 3-shard cluster with drop/dup/corrupt/delay/reset faults on
// every client connection, then settles and reads everything back.
func TestChaosClusterPath(t *testing.T) {
	ffab := faultfab.New(clusterChaosConfig(*faultSeed))
	var connSeq atomic.Uint64
	h := newClusterHarness(t, ffab, 2, func(c precursor.Conn) precursor.Conn {
		return ffab.Wrap(c, faultfab.C2S, fmt.Sprintf("conn%d", connSeq.Add(1)))
	})

	perWorker := *chaosOps / clusterWorkers
	var wg sync.WaitGroup
	workers := make([]*clusterWorker, clusterWorkers)
	for i := range workers {
		workers[i] = newClusterWorker(h, i)
		wg.Add(1)
		go func(w *clusterWorker) {
			defer wg.Done()
			w.run(perWorker)
		}(workers[i])
	}
	wg.Wait()
	h.check(t)

	// Let late deliveries land, then read everything back.
	ffab.Quiesce(2 * time.Second)
	var vg sync.WaitGroup
	for _, w := range workers {
		vg.Add(1)
		go func(w *clusterWorker) {
			defer vg.Done()
			w.verify()
		}(w)
	}
	vg.Wait()
	h.check(t)

	st := h.cc.Stats()
	counts := ffab.Counts()
	t.Logf("chaos: ops=%d acked=%d transient=%d integrity=%d degraded=%v",
		h.ops.Load(), h.acked.Load(), h.transient.Load(), h.integrity.Load(), h.cc.Degraded())
	t.Logf("fabric: %s", ffab.Summary())
	t.Logf("cluster: puts=%d gets=%d deletes=%d errors=%d", st.Puts, st.Gets, st.Deletes, st.Errors)

	if h.acked.Load() == 0 {
		t.Fatalf("no operation ever succeeded under chaos (seed=%d)", ffab.Seed())
	}
	if *chaosOps >= 1000 {
		for _, kind := range []string{"drop", "dup", "corrupt", "delay"} {
			if counts[kind] == 0 {
				t.Errorf("fault kind %q never fired — the run did not exercise it (seed=%d)", kind, ffab.Seed())
			}
		}
	}
}

// TestChaosClusterPartition cuts one shard's client→server traffic:
// operations on its keys must fail typed (timeout, then fail-fast
// ShardError/ErrShardDown once the breaker trips), healthy shards must
// keep serving, and after heal a single probe must close the breaker
// with no acknowledged data lost.
func TestChaosClusterPartition(t *testing.T) {
	// One clean fabric per shard so exactly one shard can be cut. With a
	// clean config nothing ever dies, so no pool redial happens and the
	// dial-order mapping conn i → shard i (ConnsPerShard=1) is stable.
	fabs := make([]*faultfab.Fabric, clusterShards)
	for i := range fabs {
		fabs[i] = faultfab.New(faultfab.Config{Seed: *faultSeed})
	}
	var connSeq atomic.Uint64
	h := newClusterHarness(t, fabs[0], 1, func(c precursor.Conn) precursor.Conn {
		i := int(connSeq.Add(1)) - 1
		if i >= len(fabs) {
			t.Errorf("unexpected redial: conn %d", i)
			i = 0
		}
		return fabs[i].Wrap(c, faultfab.C2S, fmt.Sprintf("shard%d", i))
	})
	cc := h.cc

	// Pick a key on shard 0 (the victim) and one on any other shard.
	victim := h.specs[0][0].Addr
	var keyV, keyH string
	for i := 0; keyV == "" || keyH == ""; i++ {
		k := fmt.Sprintf("pk%d", i)
		if cc.ShardFor(k) == victim {
			if keyV == "" {
				keyV = k
			}
		} else if keyH == "" {
			keyH = k
		}
	}

	for _, k := range []string{keyV, keyH} {
		if err := cc.Put(k, []byte("v1")); err != nil {
			t.Fatalf("put %s before partition: %v", k, err)
		}
	}

	fabs[0].Partition(faultfab.C2S)

	// First op into the partition: burns the full timeout, is reported
	// unconfirmed, and trips the breaker.
	err := cc.Put(keyV, []byte("v2"))
	if !errors.Is(err, precursor.ErrTimeout) || !errors.Is(err, precursor.ErrUnconfirmed) {
		t.Fatalf("put into partition: want timeout+unconfirmed, got %v", err)
	}
	var se *precursor.ShardError
	if !errors.As(err, &se) || se.Shard != victim {
		t.Fatalf("put into partition: want ShardError{%s}, got %v", victim, err)
	}

	// Breaker open: fail-fast, no timeout burned.
	start := time.Now()
	if _, err := cc.Get(keyV); !errors.Is(err, precursor.ErrShardDown) {
		t.Fatalf("get on tripped shard: want ErrShardDown, got %v", err)
	}
	if d := time.Since(start); d > clusterOpTimeout/2 {
		t.Fatalf("breaker did not fail fast: %v", d)
	}
	if deg := cc.Degraded(); len(deg) != 1 || deg[0] != victim {
		t.Fatalf("Degraded() = %v, want [%s]", deg, victim)
	}

	// Healthy shards are unaffected.
	if v, err := cc.Get(keyH); err != nil || string(v) != "v1" {
		t.Fatalf("healthy shard during partition: %q, %v", v, err)
	}

	// Heal: the parked v2 frame flushes in order, and once the backoff
	// elapses a single probe closes the breaker.
	fabs[0].Heal(faultfab.C2S)
	deadline := time.Now().Add(5 * time.Second)
	var got []byte
	for {
		var err error
		if got, err = cc.Get(keyV); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never recovered after heal: %v (%s)", err, fabs[0].Summary())
		}
		time.Sleep(25 * time.Millisecond)
	}
	if s := string(got); s != "v1" && s != "v2" {
		t.Fatalf("after heal Get(%s) = %q, want v1 or v2", keyV, s)
	}
	if !cc.Healthy() {
		t.Fatalf("breaker still open after successful probe: %v", cc.Degraded())
	}

	// Full service restored, nothing acknowledged was lost.
	if err := cc.Put(keyV, []byte("v3")); err != nil {
		t.Fatalf("put after heal: %v", err)
	}
	if v, err := cc.Get(keyV); err != nil || string(v) != "v3" {
		t.Fatalf("get after heal: %q, %v", v, err)
	}
	if v, err := cc.Get(keyH); err != nil || string(v) != "v1" {
		t.Fatalf("healthy shard after heal: %q, %v", v, err)
	}
}
