package core

// Chaos invariant suite for the batched client path: multi-op batch
// frames driven through the same deterministic fault-injection fabric
// as TestChaosClientPath (drop/dup/corrupt/delay on ring writes in
// both directions, plus faulted bootstrap). The invariants mirror the
// single-op suite, plus the batch-specific ones from ISSUE 7:
//
//  1. An acknowledged batched put is never lost.
//  2. A batched get never returns a value failing its MAC — corruption
//     surfaces as ErrIntegrity, never as data.
//  3. Oids stay strictly monotonic per session (one oid per batch).
//  4. Failures surface per-op, not per-batch: a batch whose fate is
//     unknown resolves its write ops with ErrUnconfirmed joined onto
//     the cause while its read ops carry the plain cause —
//     ErrUnconfirmed never appears on a get.
//
// Failures print the -faultseed reproduction line via chaosHarness.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"precursor/internal/faultfab"
)

const batchChaosMaxOps = 5

// batchChaosWorker drives batch frames over a disjoint keyspace and
// checks every per-op outcome against per-key candidate sets, exactly
// like chaosWorker does for single ops.
type batchChaosWorker struct {
	h       *chaosHarness
	id      int
	rng     *rand.Rand
	model   map[string]map[string]bool
	cl      *Client
	session int
	prevOid uint64
	consec  int
}

func newBatchChaosWorker(h *chaosHarness, id int) *batchChaosWorker {
	w := &batchChaosWorker{
		h: h, id: id,
		rng:   rand.New(rand.NewPCG(h.ffab.Seed(), uint64(id)^0xBA7C4)),
		model: make(map[string]map[string]bool),
	}
	for k := 0; k < chaosKeys; k++ {
		w.model[w.key(k)] = map[string]bool{absentVal: true}
	}
	return w
}

func (w *batchChaosWorker) key(k int) string { return fmt.Sprintf("bw%d-k%d", w.id, k) }

func (w *batchChaosWorker) ensure() bool {
	for attempt := 0; w.cl == nil; attempt++ {
		if w.h.stop.Load() {
			return false
		}
		if attempt >= 25 {
			w.h.fail("batch worker %d: %d consecutive connect failures", w.id, attempt)
			return false
		}
		w.session++
		cl, err := w.h.connect(w.id+100, w.session)
		if err != nil {
			continue
		}
		w.cl = cl
		w.prevOid = 0
		w.consec = 0
	}
	return true
}

func (w *batchChaosWorker) abandon() {
	if w.cl != nil {
		w.cl.Close()
		w.cl = nil
		w.h.reconnects.Add(1)
		time.Sleep(chaosGrace)
	}
}

func (w *batchChaosWorker) value(key string, op int) string {
	return fmt.Sprintf("%s-o%d-s%d|", key, op, w.session) +
		strings.Repeat("b", w.rng.IntN(512))
}

// run drives op batches until it has issued at least totalOps
// operations (batches count as their op count).
func (w *batchChaosWorker) run(totalOps int) {
	issued := 0
	for batch := 0; issued < totalOps; batch++ {
		if w.h.stop.Load() || !w.ensure() {
			return
		}
		n := 2 + w.rng.IntN(batchChaosMaxOps-1)
		ops := make([]BatchOp, n)
		vals := make([]string, n)
		for i := range ops {
			key := w.key(w.rng.IntN(chaosKeys))
			switch r := w.rng.Float64(); {
			case r < 0.35:
				vals[i] = w.value(key, batch*batchChaosMaxOps+i)
				ops[i] = BatchOp{Kind: BatchPut, Key: key, Value: []byte(vals[i])}
			case r < 0.50:
				ops[i] = BatchOp{Kind: BatchDelete, Key: key}
			default:
				ops[i] = BatchOp{Kind: BatchGet, Key: key}
			}
		}
		results, err := w.cl.Batch(ops)
		issued += n
		w.h.ops.Add(uint64(n))

		if err != nil && !transientErr(err) {
			w.h.fail("batch worker %d: batch-level error not typed transient: %v", w.id, err)
			return
		}
		if err != nil && len(results) == 0 {
			// Pre-send failure (no ring credit before the deadline, or the
			// session died first): the frame never entered the ring, so
			// nothing was applied and there is nothing to model.
			w.h.transient.Add(1)
			w.consec++
			if errors.Is(err, ErrClosed) || w.consec >= 3 {
				w.abandon()
			}
			continue
		}
		if len(results) != n {
			w.h.fail("batch worker %d: %d ops returned %d results", w.id, n, len(results))
			return
		}
		// Per-op model updates, in op order (the server applies them in
		// order under one seal).
		for i, res := range results {
			w.applyResult(ops[i], vals[i], res)
			if w.h.stop.Load() {
				return
			}
		}

		if w.cl != nil {
			if cur := w.cl.LastOid(); cur <= w.prevOid {
				w.h.fail("batch worker %d: oid went %d -> %d", w.id, w.prevOid, cur)
				return
			} else {
				w.prevOid = cur
			}
		}
		if err != nil && transientErr(err) {
			w.h.transient.Add(1)
			w.consec++
		} else if err == nil {
			w.consec = 0
		}
		if errors.Is(err, ErrClosed) || w.consec >= 3 {
			w.abandon()
		}
	}
}

// applyResult folds one op's outcome into the per-key candidate model
// and enforces the per-op error typing invariant.
func (w *batchChaosWorker) applyResult(op BatchOp, val string, res BatchResult) {
	key := op.Key
	switch op.Kind {
	case BatchPut:
		switch {
		case res.Err == nil:
			w.model[key] = map[string]bool{val: true}
			w.h.acked.Add(1)
		case errors.Is(res.Err, ErrUnconfirmed), errors.Is(res.Err, ErrClosed):
			w.model[key][val] = true
		case transientErr(res.Err):
			// A transient write without ErrUnconfirmed means the frame
			// never entered the ring; nothing was applied.
		case errors.Is(res.Err, ErrBadResponse):
			// Plain ErrBadResponse is a definitive sealed rejection (e.g.
			// a corrupted untrusted header failed the count cross-check
			// before anything was applied); the unknown-fate variant
			// carries ErrUnconfirmed and is handled above.
		default:
			w.h.fail("batch worker %d: put(%s) disallowed error: %v", w.id, key, res.Err)
		}
	case BatchDelete:
		switch {
		case res.Err == nil:
			w.model[key] = map[string]bool{absentVal: true}
			w.h.acked.Add(1)
		case errors.Is(res.Err, ErrNotFound):
			if !w.model[key][absentVal] {
				w.h.fail("batch worker %d: delete(%s) not-found but candidates %v",
					w.id, key, candidates(w.model[key]))
				return
			}
			w.model[key] = map[string]bool{absentVal: true}
		case errors.Is(res.Err, ErrUnconfirmed), errors.Is(res.Err, ErrClosed):
			w.model[key][absentVal] = true
		case transientErr(res.Err):
		case errors.Is(res.Err, ErrBadResponse):
			// Definitive sealed rejection; nothing applied.
		default:
			w.h.fail("batch worker %d: delete(%s) disallowed error: %v", w.id, key, res.Err)
		}
	case BatchGet:
		// Invariant 4: unconfirmed attribution is for writes only.
		if errors.Is(res.Err, ErrUnconfirmed) {
			w.h.fail("batch worker %d: get(%s) carries ErrUnconfirmed: %v", w.id, key, res.Err)
			return
		}
		switch {
		case res.Err == nil:
			if !w.model[key][string(res.Value)] {
				w.h.fail("batch worker %d: get(%s) returned %q, not among %v",
					w.id, key, truncate(string(res.Value)), candidates(w.model[key]))
				return
			}
			w.model[key] = map[string]bool{string(res.Value): true}
			w.h.acked.Add(1)
		case errors.Is(res.Err, ErrNotFound):
			if !w.model[key][absentVal] {
				w.h.fail("batch worker %d: get(%s) not-found but candidates %v",
					w.id, key, candidates(w.model[key]))
				return
			}
			w.model[key] = map[string]bool{absentVal: true}
		case errors.Is(res.Err, ErrIntegrity):
			w.h.integrity.Add(1)
		case transientErr(res.Err), errors.Is(res.Err, ErrBadResponse):
			// ErrBadResponse: an authenticated reply the server stripped
			// (oversize) or malformed — no knowledge gained.
		default:
			w.h.fail("batch worker %d: get(%s) disallowed error: %v", w.id, key, res.Err)
		}
	}
}

// verify reads every key back (batched) once the storm has passed.
func (w *batchChaosWorker) verify() {
	for k := 0; k < chaosKeys; k++ {
		key := w.key(k)
		for attempt := 0; attempt < 5; attempt++ {
			if w.h.stop.Load() || !w.ensure() {
				return
			}
			results, err := w.cl.Batch([]BatchOp{{Kind: BatchGet, Key: key}})
			if w.cl != nil {
				w.prevOid = w.cl.LastOid()
			}
			if err == nil {
				w.applyResult(BatchOp{Kind: BatchGet, Key: key}, "", results[0])
				break
			}
			if errors.Is(err, ErrClosed) {
				w.abandon()
			}
		}
	}
}

// TestChaosBatchPath drives concurrent batched traffic through the
// acceptance fault mix and checks the per-op invariants throughout,
// then settles and verifies every key.
func TestChaosBatchPath(t *testing.T) {
	h := newChaosHarness(t, chaosConfig(*faultSeed))
	perWorker := *chaosOps / chaosWorkers

	var wg sync.WaitGroup
	workers := make([]*batchChaosWorker, chaosWorkers)
	for i := range workers {
		workers[i] = newBatchChaosWorker(h, i)
		wg.Add(1)
		go func(w *batchChaosWorker) {
			defer wg.Done()
			w.run(perWorker)
		}(workers[i])
	}
	wg.Wait()
	h.check(t)

	h.ffab.Quiesce(2 * time.Second)
	var vg sync.WaitGroup
	for _, w := range workers {
		vg.Add(1)
		go func(w *batchChaosWorker) {
			defer vg.Done()
			w.verify()
			w.abandon()
		}(w)
	}
	vg.Wait()
	h.check(t)

	st := h.server.Stats()
	t.Logf("batch chaos: ops=%d acked=%d transient=%d integrity=%d reconnects=%d",
		h.ops.Load(), h.acked.Load(), h.transient.Load(), h.integrity.Load(), h.reconnects.Load())
	t.Logf("fabric: %s", h.ffab.Summary())
	t.Logf("server: batches=%d batchedOps=%d replays=%d authFailures=%d badRequests=%d",
		st.Batches, st.BatchedOps, st.Replays, st.AuthFailures, st.BadRequests)
	if h.acked.Load() == 0 {
		t.Fatalf("no batched operation ever succeeded under chaos (seed=%d)", h.ffab.Seed())
	}
	if st.Batches == 0 {
		t.Fatalf("server applied no batch frames — the batch path was never exercised")
	}
}

// TestChaosBatchMidReset resets the session while a batch is in flight:
// the batch must resolve with typed per-op errors (the write, sent,
// unconfirmed-joined; the read never), never hang, and a fresh session
// must see only legal values. The server's replies are held back until
// the frame has reached it, so the reset lands between send and reply.
func TestChaosBatchMidReset(t *testing.T) {
	h := newChaosHarness(t, chaosConfig(*faultSeed))
	w := newBatchChaosWorker(h, 0)
	if !w.ensure() {
		t.Fatal("no session")
	}
	// Seed a known value.
	results, err := w.cl.Batch([]BatchOp{{Kind: BatchPut, Key: w.key(0), Value: []byte("seed|")}})
	if err == nil && results[0].Err == nil {
		w.model[w.key(0)] = map[string]bool{"seed|": true}
	} else {
		w.model[w.key(0)]["seed|"] = true
	}

	h.ffab.Partition(faultfab.S2C)
	held := h.ffab.Counts()["hold"]
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err := w.cl.Batch([]BatchOp{
			{Kind: BatchPut, Key: w.key(0), Value: []byte("midreset|")},
			{Kind: BatchGet, Key: w.key(0)},
		})
		if err == nil {
			h.fail("mid-reset batch succeeded with its replies held back")
			return
		}
		if !transientErr(err) {
			h.fail("mid-reset batch error not typed: %v", err)
		}
		if !errors.Is(res[0].Err, ErrUnconfirmed) {
			h.fail("mid-reset write lacks unconfirmed attribution: %v", res[0].Err)
		}
		if errors.Is(res[1].Err, ErrUnconfirmed) {
			h.fail("mid-reset read carries ErrUnconfirmed: %v", res[1].Err)
		}
		w.model[w.key(0)]["midreset|"] = true
	}()
	// Reset once the server has answered into the partition (or the batch
	// ended on its own: a faulted request frame never reaches the server).
wait:
	for h.ffab.Counts()["hold"] == held {
		select {
		case <-done:
			break wait
		case <-time.After(time.Millisecond):
		}
	}
	w.cl.conn.SetError()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("mid-reset batch never resolved")
	}
	h.ffab.Heal(faultfab.S2C)
	w.abandon()
	h.check(t)

	// A fresh session must read a legal candidate.
	if !w.ensure() {
		t.Fatal("no fresh session")
	}
	defer w.abandon()
	for attempt := 0; attempt < 10; attempt++ {
		results, err := w.cl.Batch([]BatchOp{{Kind: BatchGet, Key: w.key(0)}})
		if err == nil && results[0].Err == nil {
			if !w.model[w.key(0)][string(results[0].Value)] {
				t.Fatalf("post-reset read %q not among %v (seed=%d)",
					truncate(string(results[0].Value)), candidates(w.model[w.key(0)]), h.ffab.Seed())
			}
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("post-reset session never served a read (seed=%d)", h.ffab.Seed())
}
