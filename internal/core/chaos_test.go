package core

// Chaos invariant suite for the single-server client path: concurrent
// Put/Get/Delete traffic is driven through the deterministic
// fault-injection fabric (internal/faultfab) and checked against a
// per-key model of what the store may legally contain. The four
// invariants, per ISSUE 2:
//
//  1. An acknowledged put is never lost: a later read must return the
//     acknowledged value (or a value from a legally-pending write).
//  2. A get never returns a value that fails its MAC — corruption
//     surfaces as ErrIntegrity, never as data.
//  3. oid replay counters stay strictly monotonic per client.
//  4. Corrupted/duplicated/dropped traffic maps to typed errors
//     (ErrTimeout, ErrReplay, ErrUnconfirmed, ErrIntegrity, and
//     ErrBadResponse for a frame the enclave refused under seal) — never
//     silent success and never an untyped failure.
//
// The model leans on a protocol fact the ring framing provides: a
// session's requests occupy ring slots in issue order and the enclave's
// replay check applies each oid at most once, in increasing order, so a
// session's applied operations are always a prefix-respecting
// subsequence of its issued operations. An acknowledged op therefore
// resolves every earlier maybe-applied op: they either ran before it or
// never will.
//
// Any failure reprints the fabric seed; rerunning with
// -faultseed=<seed> (same -chaosops) redraws the identical fault
// schedule.

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

	"precursor/internal/faultfab"
	"precursor/internal/obs"
	"precursor/internal/rdma"
	"precursor/internal/sgx"
)

var (
	faultSeed = flag.Uint64("faultseed", 0xC0FFEE, "fault-injection schedule seed; a failing chaos run prints the seed that reproduces it")
	chaosOps  = flag.Int("chaosops", 3000, "total operations the chaos suite drives through the faulty fabric")
)

// absentVal marks "key not present" in a candidate set; real values are
// always non-empty strings.
const absentVal = ""

const (
	chaosWorkers   = 6
	chaosKeys      = 6
	chaosOpTimeout = 150 * time.Millisecond
	// chaosGrace is how long an abandoned session's already-delivered
	// frames get to drain through the server before the worker resumes
	// on a fresh session (closing the conn stops any further delivery).
	chaosGrace = 40 * time.Millisecond
)

// chaosConfig is the acceptance-criteria fault mix: drop=5%, dup=2%,
// corrupt=1%, delay≤10ms, on ring writes in both directions, plus a
// lighter mix on the bootstrap sends.
func chaosConfig(seed uint64) faultfab.Config {
	ring := faultfab.ClassProbs{
		Drop: 0.05, Dup: 0.02, Corrupt: 0.01, Delay: 0.05,
		MaxDelay: 10 * time.Millisecond,
	}
	boot := faultfab.ClassProbs{
		Drop: 0.02, Corrupt: 0.005, Delay: 0.05,
		MaxDelay: 5 * time.Millisecond,
	}
	return faultfab.Config{
		Seed: seed,
		C2S:  faultfab.ClassMap{faultfab.ClassWrite: ring, faultfab.ClassSend: boot},
		S2C:  faultfab.ClassMap{faultfab.ClassWrite: ring, faultfab.ClassSend: boot},
	}
}

// chaosHarness is a server plus the fault fabric between it and every
// client session the workers open.
type chaosHarness struct {
	t      *testing.T
	fab    *rdma.Fabric
	ffab   *faultfab.Fabric
	plat   *sgx.Platform
	server *Server
	srvDev *rdma.Device
	tracer *obs.Tracer // optional client-side tracer wired into every session

	stop    atomic.Bool
	failMu  sync.Mutex
	failure string

	// Tallies across workers.
	ops, acked, transient, integrity, reconnects atomic.Uint64
}

func newChaosHarness(t *testing.T, fcfg faultfab.Config) *chaosHarness {
	t.Helper()
	plat, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	fab := rdma.NewFabric()
	srvDev, err := fab.NewDevice("server")
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(srvDev, ServerConfig{
		Platform:     plat,
		Workers:      4,
		PollInterval: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	return &chaosHarness{
		t: t, fab: fab, ffab: faultfab.New(fcfg),
		plat: plat, server: server, srvDev: srvDev,
	}
}

// fail records the first invariant violation (with the reproduction
// line) and stops every worker; safe from any goroutine.
func (h *chaosHarness) fail(format string, args ...any) {
	h.failMu.Lock()
	if h.failure == "" {
		h.failure = fmt.Sprintf(format, args...) + fmt.Sprintf(
			"\nreproduce with: go test ./internal/core/ -run %s -faultseed=%d -chaosops=%d\nfabric: %s",
			h.t.Name(), h.ffab.Seed(), *chaosOps, h.ffab.Summary())
	}
	h.failMu.Unlock()
	h.stop.Store(true)
}

func (h *chaosHarness) check(t *testing.T) {
	t.Helper()
	h.failMu.Lock()
	defer h.failMu.Unlock()
	if h.failure != "" {
		t.Fatal(h.failure)
	}
}

// connect opens one faulted session: both queue-pair ends are wrapped —
// the client end transmits C2S, the server end S2C — under a stable
// label so the schedule replays from the seed alone.
func (h *chaosHarness) connect(worker, session int) (*Client, error) {
	label := fmt.Sprintf("w%d-s%d", worker, session)
	dev, err := h.fab.NewDevice(label + "-dev")
	if err != nil {
		return nil, err
	}
	cliQP, srvQP := h.fab.ConnectRC(dev, h.srvDev)
	cliConn := h.ffab.Wrap(cliQP, faultfab.C2S, label)
	srvConn := h.ffab.Wrap(srvQP, faultfab.S2C, label)
	go h.server.HandleConnection(srvConn)

	cl, err := Connect(ClientConfig{
		Conn: cliConn, Device: dev,
		PlatformKey: h.plat.AttestationPublicKey(),
		Measurement: h.server.Measurement(),
		Timeout:     chaosOpTimeout,
		RetryBase:   500 * time.Microsecond,
		Tracer:      h.tracer,
	})
	if err != nil {
		cliConn.Close()
		return nil, err
	}
	return cl, nil
}

// chaosWorker drives a sequential op stream over its own disjoint
// keyspace, reconnecting when a session wedges, and checks every outcome
// against the per-key candidate sets.
type chaosWorker struct {
	h       *chaosHarness
	id      int
	rng     *rand.Rand
	model   map[string]map[string]bool
	cl      *Client
	session int
	prevOid uint64
	consec  int // consecutive transient outcomes (wedge heuristic)
}

func newChaosWorker(h *chaosHarness, id int) *chaosWorker {
	w := &chaosWorker{
		h: h, id: id,
		rng:   rand.New(rand.NewPCG(h.ffab.Seed(), uint64(id))),
		model: make(map[string]map[string]bool),
	}
	for k := 0; k < chaosKeys; k++ {
		w.model[w.key(k)] = map[string]bool{absentVal: true}
	}
	return w
}

func (w *chaosWorker) key(k int) string { return fmt.Sprintf("w%d-k%d", w.id, k) }

// ensure opens a session if none is live; returns false when the run
// should stop.
func (w *chaosWorker) ensure() bool {
	for attempt := 0; w.cl == nil; attempt++ {
		if w.h.stop.Load() {
			return false
		}
		if attempt >= 25 {
			w.h.fail("worker %d: %d consecutive connect failures", w.id, attempt)
			return false
		}
		w.session++
		cl, err := w.h.connect(w.id, w.session)
		if err != nil {
			// Bootstrap traffic rides the same faulty fabric; failures
			// must be typed errors, and are retried on a fresh session.
			continue
		}
		w.cl = cl
		w.prevOid = 0
		w.consec = 0
	}
	return true
}

// abandon closes the wedged session (killing its undelivered frames)
// and waits for the server to drain what was already delivered, so the
// dead session can never mutate state after the worker moves on.
func (w *chaosWorker) abandon() {
	if w.cl != nil {
		w.cl.Close()
		w.cl = nil
		w.h.reconnects.Add(1)
		time.Sleep(chaosGrace)
	}
}

// transientErr reports outcomes invariant 4 allows for perturbed ops.
func transientErr(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrReplay) ||
		errors.Is(err, ErrUnconfirmed) || errors.Is(err, ErrClosed)
}

func (w *chaosWorker) run(ops int) {
	for op := 0; op < ops; op++ {
		if w.h.stop.Load() || !w.ensure() {
			return
		}
		key := w.key(w.rng.IntN(chaosKeys))
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

		// Invariant 3: oids are issued strictly monotonically.
		if w.cl != nil {
			if cur := w.cl.LastOid(); cur <= w.prevOid {
				w.h.fail("worker %d: oid went %d -> %d (not strictly monotonic)", w.id, w.prevOid, cur)
				return
			} else {
				w.prevOid = cur
			}
		}

		if err != nil && transientErr(err) {
			w.h.transient.Add(1)
			w.consec++
		} else {
			w.consec = 0
		}
		// A wedged session (lost slot, desynced ring) times out every
		// op; only re-establishment recovers it.
		if errors.Is(err, ErrClosed) || w.consec >= 3 {
			w.abandon()
		}
	}
}

// value builds a unique, self-describing value for (key, op) with a
// pseudo-random size, so candidate membership identifies exactly one
// issued write.
func (w *chaosWorker) value(key string, op int) string {
	return fmt.Sprintf("%s-o%d-s%d|", key, op, w.session) +
		strings.Repeat("x", w.rng.IntN(1024))
}

func (w *chaosWorker) doPut(key string, op int) error {
	v := w.value(key, op)
	err := w.cl.Put(key, []byte(v))
	switch {
	case err == nil:
		// Acknowledged: applied, and every older pending op is resolved.
		w.model[key] = map[string]bool{v: true}
		w.h.acked.Add(1)
	case errors.Is(err, ErrUnconfirmed), errors.Is(err, ErrClosed):
		// Maybe applied (the frame may have landed before the fault).
		w.model[key][v] = true
	case errors.Is(err, ErrTimeout), errors.Is(err, ErrBadResponse):
		// Never sent (no ring credit before the deadline), or refused under
		// seal — a corrupted header the enclave caught: not applied.
	default:
		w.h.fail("worker %d: Put(%s) returned disallowed error: %v", w.id, key, err)
	}
	return err
}

func (w *chaosWorker) doDelete(key string) error {
	err := w.cl.Delete(key)
	switch {
	case err == nil:
		w.model[key] = map[string]bool{absentVal: true}
		w.h.acked.Add(1)
	case errors.Is(err, ErrNotFound):
		// Authenticated "no such key": only legal if absence is a
		// candidate — otherwise an acknowledged put was lost.
		if !w.model[key][absentVal] {
			w.h.fail("worker %d: Delete(%s) says not-found but candidates are %v", w.id, key, candidates(w.model[key]))
			return err
		}
		w.model[key] = map[string]bool{absentVal: true}
	case errors.Is(err, ErrUnconfirmed), errors.Is(err, ErrClosed):
		w.model[key][absentVal] = true
	case errors.Is(err, ErrTimeout), errors.Is(err, ErrBadResponse):
		// Never sent, or refused under seal: not applied.
	default:
		w.h.fail("worker %d: Delete(%s) returned disallowed error: %v", w.id, key, err)
	}
	return err
}

func (w *chaosWorker) doGet(key string) error {
	v, err := w.cl.Get(key)
	switch {
	case err == nil:
		// Invariants 1+2: the MAC-verified value must be one the model
		// allows, and the authenticated read resolves all older pendings.
		if !w.model[key][string(v)] {
			w.h.fail("worker %d: Get(%s) returned %q, not among candidates %v",
				w.id, key, truncate(string(v)), candidates(w.model[key]))
			return nil
		}
		w.model[key] = map[string]bool{string(v): true}
		w.h.acked.Add(1)
	case errors.Is(err, ErrNotFound):
		if !w.model[key][absentVal] {
			w.h.fail("worker %d: Get(%s) says not-found but candidates are %v", w.id, key, candidates(w.model[key]))
			return err
		}
		w.model[key] = map[string]bool{absentVal: true}
	case errors.Is(err, ErrIntegrity):
		// Tamper evidence working as designed: a corrupted payload (in
		// flight or at rest) failed its MAC and was refused, not
		// returned. The stored blob may stay poisoned until rewritten.
		w.h.integrity.Add(1)
	case transientErr(err), errors.Is(err, ErrBadResponse):
		// No state change and no knowledge gained.
	default:
		w.h.fail("worker %d: Get(%s) returned disallowed error: %v", w.id, key, err)
	}
	return err
}

// verify read-backs every key once the storm has passed, reconnecting
// as needed; keys whose reads keep failing transiently are skipped (the
// network is still faulty), but any returned answer must be legal.
func (w *chaosWorker) verify() {
	for k := 0; k < chaosKeys; k++ {
		for attempt := 0; attempt < 5; attempt++ {
			if w.h.stop.Load() || !w.ensure() {
				return
			}
			err := w.doGet(w.key(k))
			if w.cl != nil {
				w.prevOid = w.cl.LastOid()
			}
			if err == nil || errors.Is(err, ErrNotFound) || errors.Is(err, ErrIntegrity) {
				break
			}
			if errors.Is(err, ErrClosed) {
				w.abandon()
			}
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

// TestChaosClientPath is the acceptance-criteria run: concurrent mixed
// operations through drop=5%, dup=2%, corrupt=1%, delay≤10ms, all four
// invariants checked throughout, then a settle-and-verify pass.
func TestChaosClientPath(t *testing.T) {
	h := newChaosHarness(t, chaosConfig(*faultSeed))
	perWorker := *chaosOps / chaosWorkers

	var wg sync.WaitGroup
	workers := make([]*chaosWorker, chaosWorkers)
	for i := range workers {
		workers[i] = newChaosWorker(h, i)
		wg.Add(1)
		go func(w *chaosWorker) {
			defer wg.Done()
			w.run(perWorker)
		}(workers[i])
	}
	wg.Wait()
	h.check(t)

	// Let in-flight late deliveries land, then read everything back.
	h.ffab.Quiesce(2 * time.Second)
	var vg sync.WaitGroup
	for _, w := range workers {
		vg.Add(1)
		go func(w *chaosWorker) {
			defer vg.Done()
			w.verify()
			w.abandon()
		}(w)
	}
	vg.Wait()
	h.check(t)

	counts := h.ffab.Counts()
	st := h.server.Stats()
	t.Logf("chaos: ops=%d acked=%d transient=%d integrity=%d reconnects=%d",
		h.ops.Load(), h.acked.Load(), h.transient.Load(), h.integrity.Load(), h.reconnects.Load())
	t.Logf("fabric: %s", h.ffab.Summary())
	t.Logf("server: replays=%d authFailures=%d badRequests=%d", st.Replays, st.AuthFailures, st.BadRequests)

	if h.acked.Load() == 0 {
		t.Fatalf("no operation ever succeeded under chaos (seed=%d)", h.ffab.Seed())
	}
	if *chaosOps >= 1000 {
		for _, kind := range []string{"drop", "dup", "corrupt", "delay"} {
			if counts[kind] == 0 {
				t.Errorf("fault kind %q never fired — the run did not exercise it (seed=%d)", kind, h.ffab.Seed())
			}
		}
	}
}

// TestChaosBootstrap floods the session-setup path (SENDs) with hard
// loss, corruption, and delay: every Connect attempt must return a
// typed outcome promptly — success or error — never hang.
func TestChaosBootstrap(t *testing.T) {
	boot := faultfab.ClassProbs{Drop: 0.3, Corrupt: 0.1, Delay: 0.2, MaxDelay: 5 * time.Millisecond}
	h := newChaosHarness(t, faultfab.Config{
		Seed:     *faultSeed,
		HardLoss: true,
		C2S:      faultfab.ClassMap{faultfab.ClassSend: boot},
		S2C:      faultfab.ClassMap{faultfab.ClassSend: boot},
	})

	var succeeded int
	for i := 0; i < 20; i++ {
		done := make(chan error, 1)
		go func(i int) {
			cl, err := h.connect(0, i)
			if err == nil {
				// The data path is unfaulted here; a fresh session must
				// actually work.
				key, val := fmt.Sprintf("boot-%d", i), []byte("v")
				if perr := cl.Put(key, val); perr != nil {
					err = fmt.Errorf("put on fresh session: %w", perr)
				} else if got, gerr := cl.Get(key); gerr != nil || string(got) != "v" {
					err = fmt.Errorf("get on fresh session: %v %q", gerr, got)
				}
				cl.Close()
			}
			done <- err
		}(i)
		select {
		case err := <-done:
			if err == nil {
				succeeded++
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Connect attempt %d hung under bootstrap faults (seed=%d, %s)",
				i, h.ffab.Seed(), h.ffab.Summary())
		}
	}
	if succeeded == 0 {
		t.Fatalf("all 20 bootstrap attempts failed (seed=%d, %s)", h.ffab.Seed(), h.ffab.Summary())
	}
	t.Logf("bootstrap: %d/20 handshakes completed under %s", succeeded, h.ffab.Summary())
}

// TestChaosTracePropagation: traces survive retries and faults. A
// partitioned read's attempts appear as sibling cli_attempt spans with
// increasing attempt numbers under ONE trace (never one trace per
// attempt); a write that fails ErrUnconfirmed marks its trace
// unconfirmed; and fabric injections that overlap an operation are
// annotated onto its trace via the OnFault -> NoteFault hook.
func TestChaosTracePropagation(t *testing.T) {
	tracer := obs.New(obs.Config{Side: obs.SideClient, Workers: 2, Ring: 64})
	fcfg := faultfab.Config{Seed: *faultSeed} // deterministic: partition only
	fcfg.OnFault = func(e faultfab.Event) { tracer.NoteFault(e.String()) }
	h := newChaosHarness(t, fcfg)
	h.tracer = tracer
	h.ffab = faultfab.New(fcfg) // rebuild so OnFault is attached
	cl, err := h.connect(0, 0)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer cl.Close()

	if err := cl.Put("tk", []byte("v1")); err != nil {
		t.Fatalf("put before partition: %v", err)
	}

	h.ffab.Partition(faultfab.C2S)
	if err := cl.Put("tk", []byte("v2")); !errors.Is(err, ErrUnconfirmed) {
		t.Fatalf("put during partition: %v, want ErrUnconfirmed", err)
	}
	if _, err := cl.Get("tk"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("get during partition: %v, want ErrTimeout", err)
	}
	h.ffab.Heal(faultfab.C2S)

	recent := tracer.Recent()
	if len(recent) < 3 {
		t.Fatalf("expected >=3 traces (clean put, unconfirmed put, retried get), got %d", len(recent))
	}
	var unconfirmedPut, retriedGet, annotated bool
	for _, tr := range recent {
		if tr.Kind == "put" && tr.Unconfirmed && tr.Err != "" {
			unconfirmedPut = true
		}
		if tr.Kind == "get" && tr.Err != "" {
			// All retry attempts must be siblings inside this one trace,
			// numbered from 1 upward.
			var attempts []int
			for _, sp := range tr.Spans {
				if sp.Stage == obs.CliAttempt {
					attempts = append(attempts, int(sp.Attempt))
				}
			}
			if len(attempts) >= 2 {
				for i, a := range attempts {
					if a != i+1 {
						t.Fatalf("attempt spans not numbered 1..n in one trace: %v", attempts)
					}
				}
				retriedGet = true
			}
		}
		if len(tr.Faults) > 0 {
			annotated = true
		}
	}
	if !unconfirmedPut {
		t.Errorf("no put trace marked unconfirmed; traces: %+v", recent)
	}
	if !retriedGet {
		t.Errorf("no get trace with >=2 sibling attempt spans; traces: %+v", recent)
	}
	if !annotated {
		t.Errorf("no trace carries fault annotations despite partition holds")
	}
	// Every recorded client stage must be one the glossary names (no
	// srv_* stages can appear on a client-side tracer).
	for _, sq := range tracer.Snapshot() {
		if !strings.HasPrefix(sq.Stage.String(), "cli_") {
			t.Errorf("client tracer recorded non-client stage %q", sq.Stage)
		}
	}
}

// TestChaosPartitionRecovery cuts the request direction mid-run: ops
// fail typed during the outage, the held frames land at heal, and the
// session serves reads again afterwards without losing acknowledged
// data.
func TestChaosPartitionRecovery(t *testing.T) {
	h := newChaosHarness(t, faultfab.Config{Seed: *faultSeed}) // no probabilistic faults
	cl, err := h.connect(0, 0)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer cl.Close()

	if err := cl.Put("pk", []byte("v1")); err != nil {
		t.Fatalf("put before partition: %v", err)
	}

	h.ffab.Partition(faultfab.C2S)
	err = cl.Put("pk", []byte("v2"))
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, ErrUnconfirmed) {
		t.Fatalf("put during partition: %v, want ErrTimeout joined with ErrUnconfirmed", err)
	}
	if _, err := cl.Get("pk"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("get during partition: %v, want ErrTimeout", err)
	}

	h.ffab.Heal(faultfab.C2S)
	// The held put lands after heal; the partition-era write becomes a
	// legal candidate alongside v1.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := cl.Get("pk")
		if err == nil {
			if s := string(got); s != "v1" && s != "v2" {
				t.Fatalf("after heal: pk=%q, want v1 or v2 (seed=%d)", s, h.ffab.Seed())
			}
			break
		}
		if !transientErr(err) {
			t.Fatalf("get after heal: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never recovered after heal (seed=%d)", h.ffab.Seed())
		}
	}
	if err := cl.Put("pk2", []byte("post-heal")); err != nil {
		t.Fatalf("put after heal: %v", err)
	}
}
