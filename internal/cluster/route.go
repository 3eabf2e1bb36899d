package cluster

// The one route every operation takes through a replica group, whatever the
// group's size and the operation's: a work list of writes fans out to the
// live replicas on a pooled record and is tallied op by op (write); a work
// list of gets walks the replicas fastest first (read), a list of one behind
// a budget-guarded hedge.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"precursor/internal/audit"
	"precursor/internal/core"
	"precursor/internal/obs"
)

// askOne runs one op on rep through the backend's put, get or delete — on
// the wire the frame of one askFrame would send, without the fresh
// []BatchResult BatchContext allocates per call — and shows rep's breaker
// the outcome. It takes the op by pointer and only reads through it, so a
// caller's stack-held list stays on the stack.
func (c *Client) askOne(ctx context.Context, rep *replicaState, tok admitToken, op *core.BatchOp) (r core.BatchResult, d time.Duration) {
	t0 := time.Now()
	switch op.Kind {
	case core.BatchGet:
		r.Value, r.Err = rep.backend.GetContext(ctx, op.Key)
	case core.BatchDelete:
		r.Err = rep.backend.DeleteContext(ctx, op.Key)
	default:
		r.Err = rep.backend.PutContext(ctx, op.Key, op.Value)
	}
	d = rep.recordLatency(t0)
	r.Err = c.observe(rep, tok, r.Err)
	return r, d
}

// askFrame sends ops to rep as one batch frame and shows rep's breaker the
// worst of it: the frame's own error, else the first shard-level per-op
// one, else the first per-op one of any kind. A frame that came back
// carries one result per op (the frame's error may still be set: a frame
// that timed out reports each op's fate); one that failed whole returns no
// results and the error every op shares.
func (c *Client) askFrame(ctx context.Context, rep *replicaState, tok admitToken, ops []core.BatchOp) (results []core.BatchResult, err error, d time.Duration) {
	t0 := time.Now()
	results, err = rep.backend.BatchContext(ctx, ops)
	d = rep.recordLatency(t0)
	if len(results) != len(ops) {
		results = nil
		if err == nil {
			err = fmt.Errorf("%w: short batch reply; %w", core.ErrBadResponse, core.ErrUnconfirmed)
		}
	}
	worst := err
	for i := 0; err == nil && i < len(results); i++ {
		if rerr := results[i].Err; rerr != nil && isShardFailure(rerr) {
			worst = rerr
			break
		} else if worst == nil {
			worst = rerr
		}
	}
	if seen := c.observe(rep, tok, worst); err != nil {
		err = seen // attributed to rep when shard-level
	}
	return results, err, d
}

// fanout is one write in flight on one group: a pooled record (per group,
// so its arrays stay sized by the group and its largest work list) that the
// caller fills, each admitted replica's writer tallies into, and whoever
// lets go of it last recycles.
type fanout struct {
	c    *Client
	g    *groupState
	ctx  context.Context // carries the write's span ref to every replica attempt
	op   *obs.Op         // single-owner: touched under mu, finished by the last holder
	ops  []core.BatchOp  // the work list, copied in: one op for Put and Delete, a group's share of a batch otherwise
	vals []byte          // the ops' values, copied in when a writer can outlive the caller (see write)
	reps []*replicaState // admitted replicas and the tokens they were admitted under
	toks []admitToken
	done chan struct{} // signalled once, when every op is decided
	refs atomic.Int32  // writers still running, plus the caller until it has read the outcomes

	mu        sync.Mutex
	tally     []opTally // per op, across the replicas that have reported
	landed    int       // replicas that have reported
	undecided int       // ops still short of a decision; the caller wakes at zero
}

// opTally is one op's count across the replicas that have reported.
type opTally struct {
	acks, notFounds      int
	firstFail, firstData error
	decided              bool
	err                  error // the op's outcome, once decided
}

// maxRetainedValues bounds the value copy a recycled fan-out record keeps:
// one that grew past it for a large write is dropped after use.
const maxRetainedValues = 64 << 10

// write applies ops — writes that g owns — on every live replica of g at
// once and fills out with their outcomes. An op is decided once quorum
// replicas have acked it, and the caller wakes when every op is decided or
// every admitted replica has reported: stragglers (e.g. an attempt stuck in
// a dead pool's acquire wait) report in the background without stalling
// anyone. Replicas that are down or repairing journal the keys instead
// (repair re-syncs them later — journal entries are dirty markers, not
// acks). Partial application joins core.ErrUnconfirmed onto the failure,
// mirroring the single-node write-outcome semantics.
func (c *Client) write(ctx context.Context, g *groupState, kind string, ops []core.BatchOp, out []core.BatchResult) {
	g.fanMu.Lock()
	var f *fanout
	if n := len(g.fanFree); n > 0 {
		f, g.fanFree = g.fanFree[n-1], g.fanFree[:n-1]
	} else {
		f = &fanout{c: c, g: g, done: make(chan struct{}, 1)} // the arrays grow to the group's size and the work list's on first use
	}
	g.fanMu.Unlock()
	f.refs.Store(1) // the caller's hold
	f.ops = append(f.ops, ops...)
	for _, rep := range g.replicas {
		if tok, ok := rep.admitWrite(c.opts.JournalCap, f.ops); ok {
			f.reps, f.toks = append(f.reps, rep), append(f.toks, tok)
		}
	}
	if len(f.reps) == 0 {
		f.release()
		down := &ShardError{Shard: g.name, Err: ErrShardDown}
		for i := range out {
			c.noteQuorumShortfall(g, 0, "no live replicas")
			out[i].Err = down
		}
		for _, rep := range g.replicas {
			rep.errors.Add(1)
		}
		return
	}
	if len(f.reps) > g.quorum {
		// The caller may return at quorum with a writer still sending, and
		// may then reuse its buffers: the stragglers send our copy.
		for i := range f.ops {
			n := len(f.vals)
			f.vals = append(f.vals, f.ops[i].Value...)
			f.ops[i].Value = f.vals[n:len(f.vals):len(f.vals)]
		}
	}
	f.tally = append(f.tally, make([]opTally, len(ops))...)
	f.undecided = len(ops)
	f.op = c.opts.Tracer.Start(int(c.traceSlot.Add(1)), kind)
	f.op.SetGroup(g.name)
	f.ctx = f.op.Continue(ctx)
	f.refs.Add(int32(len(f.reps))) // and one per writer
	if len(f.reps) == 1 {
		// A lone writer has no straggler to escape from: no hand-off.
		f.run(f.reps[0])
	} else {
		for _, rep := range f.reps {
			// Hand the write to a parked writer of this replica, else start one:
			// a replica runs as many writes at once as it is asked to, so a
			// straggler delays nobody, and a steady load starts no goroutine.
			select {
			case rep.work <- f:
			default:
				go rep.writer(c.stopCh, f)
			}
		}
	}
	<-f.done
	f.mu.Lock()
	for i := range out {
		out[i].Err = f.tally[i].err
	}
	f.mu.Unlock()
	f.release()
	if slices.ContainsFunc(out, func(r core.BatchResult) bool { return r.Err == nil }) {
		c.opts.Budget.OnWriteSuccess()
	}
}

// writer runs this replica's share of one fan-out after another, parking
// between them until the client closes.
func (s *replicaState) writer(stop <-chan struct{}, f *fanout) {
	for {
		f.run(s)
		select {
		case f = <-s.work:
		case <-stop:
			return
		}
	}
}

// run performs the work list on rep — breaker observation included — and
// tallies it op by op: the ack that completes an op's quorum decides it,
// the last replica to report settles every shortfall, and whichever of the
// two leaves no op undecided wakes the caller. A write rep missed, or may
// have missed, is journaled here and nowhere else.
func (f *fanout) run(rep *replicaState) {
	c, tok := f.c, f.toks[slices.Index(f.reps, rep)]
	s0 := f.op.Now()
	var lone [1]core.BatchResult
	results, ferr, d := lone[:], error(nil), time.Duration(0)
	if len(f.ops) == 1 {
		lone[0], d = c.askOne(f.ctx, rep, tok, &f.ops[0])
	} else {
		results, ferr, d = c.askFrame(f.ctx, rep, tok, f.ops)
	}
	rep.noteLatency(d)
	end := f.op.Now()

	f.mu.Lock()
	f.op.ReplicaSpanAt(rep.name, s0, end)
	f.landed++
	for i := range f.ops {
		op, t := &f.ops[i], &f.tally[i]
		err := ferr
		if results != nil {
			err = results[i].Err
		}
		isDelete := op.Kind == core.BatchDelete
		switch {
		case err == nil && isDelete:
			rep.deletes.Add(1)
			t.acks++
		case err == nil:
			rep.puts.Add(1)
			t.acks++
		case isDelete && errors.Is(err, core.ErrNotFound):
			// A replica that never had the key is at the delete's desired
			// end state, so not-found counts toward the quorum.
			t.acks++
			t.notFounds++
		case isShardFailure(err) || errors.Is(err, core.ErrUnconfirmed):
			rep.missedWrite(c.opts.JournalCap, op.Key)
			t.firstFail = cmp.Or(t.firstFail, err)
		default:
			t.firstData = cmp.Or(t.firstData, err)
		}
		switch {
		case t.decided:
		case t.acks >= f.g.quorum && t.acks == t.notFounds:
			f.decide(t, core.ErrNotFound)
		case t.acks >= f.g.quorum:
			f.decide(t, nil)
		case f.landed == len(f.reps):
			f.decide(t, f.shortfall(op, t))
		}
	}
	f.mu.Unlock()
	f.release()
}

// decide settles one op's outcome; the op that leaves none undecided wakes
// the caller.
func (f *fanout) decide(t *opTally, err error) {
	t.decided, t.err = true, err
	f.op.SetError(err)
	if f.undecided--; f.undecided == 0 {
		f.done <- struct{}{}
	}
}

// shortfall is the outcome of an op whose every result is in and that
// missed its quorum.
func (f *fanout) shortfall(op *core.BatchOp, t *opTally) error {
	detail := "put"
	if op.Kind == core.BatchDelete {
		detail = "delete"
	}
	f.c.noteQuorumShortfall(f.g, t.acks, detail)
	if t.acks == 0 && t.firstFail == nil && t.firstData != nil {
		// Every replica rejected the operation deterministically (e.g.
		// oversized value): a clean data error, nothing was applied.
		return t.firstData
	}
	cause := cmp.Or(t.firstFail, t.firstData, error(ErrShardDown))
	if t.acks > 0 && !errors.Is(cause, core.ErrUnconfirmed) {
		// Some replicas applied the write and the group is below quorum:
		// the outcome is indeterminate until repair reconverges.
		cause = fmt.Errorf("%w; %w", cause, core.ErrUnconfirmed)
	}
	return &ShardError{Shard: f.g.name, Err: fmt.Errorf("%w (%d/%d acks): %w", ErrNoQuorum, t.acks, f.g.quorum, cause)}
}

// release drops one hold on the record. The last one finishes the trace —
// every replica's span is in — and returns the record to its group's free
// list, emptied of everything the write lent it.
func (f *fanout) release() {
	if f.refs.Add(-1) != 0 {
		return
	}
	f.op.Finish()
	g := f.g
	clear(f.ops) // keep no key, value or error alive
	clear(f.tally)
	if cap(f.vals) > maxRetainedValues {
		f.vals = nil
	}
	*f = fanout{c: f.c, g: g, ops: f.ops[:0], vals: f.vals[:0], reps: f.reps[:0], toks: f.toks[:0], done: f.done, tally: f.tally[:0]}
	g.fanMu.Lock()
	g.fanFree = append(g.fanFree, f)
	g.fanMu.Unlock()
}

// noteQuorumShortfall counts, audits and trace-annotates one replicated
// write that missed its quorum.
func (c *Client) noteQuorumShortfall(g *groupState, acks int, detail string) {
	c.quorumShortfalls.Add(1)
	c.opts.Audit.Add(audit.Record{Kind: audit.KindQuorumShortfall, Actor: g.name,
		Detail: fmt.Sprintf("%s: %d/%d acks", detail, acks, g.quorum)})
	c.opts.Tracer.NoteFault(fmt.Sprintf("quorum shortfall group=%s %d/%d acks", g.name, acks, g.quorum))
}

// read serves ops — gets that g owns — from g's fastest healthy replica and
// fills out, failing whatever a replica left unresolved over to the next:
// on shard-level errors and on payload-MAC failures (the integrity
// backstop). A data-level answer from a healthy replica — the value, or
// not-found: an up replica has every acked write — is authoritative and
// resolves its op at once. A replica is asked for one op as a plain get and
// for several as one batch frame. ops is only read, never retained.
func (c *Client) read(ctx context.Context, g *groupState, kind string, ops []core.BatchOp, out []core.BatchResult) {
	op := c.opts.Tracer.Start(int(c.traceSlot.Add(1)), kind)
	op.SetGroup(g.name)
	ctx = op.Continue(ctx) // primary, hedge and failover attempts share the op's trace
	defer func() {
		for i := range out {
			op.SetError(out[i].Err)
		}
		op.Finish()
	}()
	var ups [readOrderStack]*replicaState
	order := g.readOrder(ups[:0])
	// No replica is up — of a group of one, whenever its replica is down:
	// the read carries a breaker probe, so a read-only workload can still
	// resurrect the group.
	lastResort := len(order) == 0
	if lastResort {
		order = g.replicas
	}
	var lastErr error
	attempted := 0
	var hedged []*replicaState // replicas the hedge asked: the walk asks none of them again
	if c.opts.HedgeReads && !lastResort && len(order) >= 2 && len(ops) == 1 {
		var done bool
		if out[0], hedged, done = c.hedgedGet(ctx, g, op, order, ops[0]); done {
			return
		}
		// Every hedged attempt failed at the shard level or the integrity
		// check (or the primary could not be admitted): walk the rest.
		attempted = len(hedged)
		lastErr, out[0].Err = out[0].Err, nil
	}
	var first [1]int
	pending := first[:] // indices into ops still unresolved
	if len(ops) > 1 {
		pending = make([]int, len(ops))
		for i := range pending {
			pending[i] = i
		}
	}
	for _, rep := range order {
		if len(pending) == 0 || attempted > 0 && spent(ctx) != nil {
			break // nothing left to ask for, or no budget left to fail over on
		}
		if slices.Contains(hedged, rep) {
			continue
		}
		tok, ok := rep.admitRead(lastResort)
		if !ok {
			continue
		}
		attempted++
		s0 := op.Now()
		var lone [1]core.BatchResult
		results, ferr, d := lone[:], error(nil), time.Duration(0)
		if len(pending) == 1 {
			lone[0], d = c.askOne(ctx, rep, tok, &ops[pending[0]])
		} else {
			sub := make([]core.BatchOp, len(pending))
			for j, pi := range pending {
				sub[j] = ops[pi]
			}
			results, ferr, d = c.askFrame(ctx, rep, tok, sub)
		}
		op.ReplicaSpanAt(rep.name, s0, op.Now())
		served, byzantine := 0, false
		unresolved := pending[:0]
		for j, pi := range pending {
			err := ferr
			if results != nil {
				err = results[j].Err
			}
			switch {
			case err == nil:
				out[pi] = results[j]
				rep.gets.Add(1)
				served++
			case errors.Is(err, core.ErrIntegrity):
				// This replica returned a payload whose MAC does not verify:
				// treat it like an outage and fail over.
				byzantine = true
				fallthrough
			case isShardFailure(err):
				lastErr = err
				unresolved = append(unresolved, pi)
			default:
				out[pi].Err = err
			}
		}
		pending = unresolved
		if byzantine {
			c.noteByzantine(g, rep)
		}
		if served > 0 {
			rep.noteLatency(d)
			c.opts.Budget.OnSuccess()
			if attempted > 1 {
				c.failovers.Add(1)
				c.opts.Audit.Add(audit.Record{Kind: audit.KindReadFailover, Actor: rep.name,
					Detail: fmt.Sprintf("group %s: %d read(s) served by attempt %d", g.name, served, attempted)})
				c.opts.Tracer.NoteFault(fmt.Sprintf("read failover group=%s served-by=%s attempt=%d", g.name, rep.name, attempted))
			}
		}
	}
	if len(pending) == 0 {
		return
	}
	if attempted == 0 {
		for _, rep := range g.replicas {
			rep.errors.Add(1)
		}
		lastErr = &ShardError{Shard: g.name, Err: ErrShardDown}
	}
	for _, pi := range pending {
		out[pi].Err = lastErr
	}
}

// noteByzantine audits and trace-annotates one replica caught returning a
// payload that fails its MAC.
func (c *Client) noteByzantine(g *groupState, rep *replicaState) {
	c.opts.Audit.Add(audit.Record{Kind: audit.KindByzantineFailover, Actor: rep.name,
		Detail: fmt.Sprintf("group %s: payload MAC failed verification", g.name)})
	c.opts.Tracer.NoteFault(fmt.Sprintf("byzantine failover group=%s replica=%s", g.name, rep.name))
}

// hedgedGet races the fastest replica against a budget-guarded hedge:
// the read is issued to order[0] immediately, and if no reply has
// arrived within hedgeDelay, a second copy goes to the next admittable
// replica. The first sealed-valid reply wins; the loser's late result
// is discarded (reads are idempotent, so a duplicate apply is
// harmless). Returns done=false when the caller should walk the replicas
// it did not ask (asked names the ones it did): the primary was not
// admittable, or every launched attempt failed at the shard level or the
// integrity check (r.Err is the last such failure).
func (c *Client) hedgedGet(ctx context.Context, g *groupState, op *obs.Op, order []*replicaState, get core.BatchOp) (r core.BatchResult, asked []*replicaState, done bool) {
	primary := order[0]
	ptok, ok := primary.admitRead(false)
	if !ok {
		return r, nil, false
	}
	type hedgeReply struct {
		rep   *replicaState
		r     core.BatchResult
		d     time.Duration
		start int64
	}
	// Buffered to the maximum attempt count so a losing straggler's send
	// never blocks: its reply is simply dropped with the channel.
	replies := make(chan hedgeReply, 2)
	launch := func(rep *replicaState, tok admitToken) {
		s0 := op.Now()
		r, d := c.askOne(ctx, rep, tok, &get)
		replies <- hedgeReply{rep: rep, r: r, d: d, start: s0}
	}
	go launch(primary, ptok)
	asked = append(asked, primary)
	timer := time.NewTimer(c.hedgeDelay(primary))
	defer timer.Stop()
	for received := 0; received < len(asked); {
		select {
		case h := <-replies:
			received++
			op.ReplicaSpanAt(h.rep.name, h.start, op.Now())
			switch {
			case h.r.Err == nil:
				h.rep.noteLatency(h.d)
				h.rep.gets.Add(1)
				c.opts.Budget.OnSuccess()
				if h.rep != primary {
					c.hedgesWon.Add(1)
					c.opts.Tracer.NoteFault(fmt.Sprintf("hedge won group=%s replica=%s", g.name, h.rep.name))
				}
				return h.r, asked, true
			case errors.Is(h.r.Err, core.ErrIntegrity):
				// Integrity backstop, as in the walk: let the race (or the
				// walk) serve the read elsewhere.
				c.noteByzantine(g, h.rep)
				r = h.r
			case !isShardFailure(h.r.Err):
				// Data-level and authoritative (e.g. not-found from a
				// healthy replica) — the race is decided.
				return h.r, asked, true
			default:
				r = h.r
			}
		case <-timer.C:
			if len(asked) > 1 || spent(ctx) != nil {
				continue
			}
			if !c.opts.Budget.TrySpendEarned() {
				c.hedgesDenied.Add(1)
				continue
			}
			for _, rep := range order[1:] {
				if tok, hok := rep.admitRead(false); hok {
					asked = append(asked, rep)
					c.hedgesLaunched.Add(1)
					c.opts.Tracer.NoteFault(fmt.Sprintf("hedge launched group=%s replica=%s", g.name, rep.name))
					go launch(rep, tok)
					break
				}
			}
		}
	}
	return r, asked, false
}

// hedgeDelay estimates the primary replica's p95 latency from its
// smoothed (EWMA) latency — 3x the mean is the standard tail estimate
// for exponential-ish service times — floored at HedgeMinDelay and
// capped at RetryBackoff so a cold or noisy estimate cannot push the
// hedge past the breaker's own patience.
func (c *Client) hedgeDelay(rep *replicaState) time.Duration {
	d := 3 * time.Duration(rep.ewma.Load())
	if d < c.opts.HedgeMinDelay {
		d = c.opts.HedgeMinDelay
	}
	if d > c.opts.RetryBackoff {
		d = c.opts.RetryBackoff
	}
	return d
}

// readOrderStack sizes the stack array a read keeps its replica order in;
// a larger group's order spills to the heap.
const readOrderStack = 8

// readOrder appends a snapshot of the group's up replicas to ups, fastest
// (EWMA) first.
func (g *groupState) readOrder(ups []*replicaState) []*replicaState {
	for _, rep := range g.replicas {
		rep.mu.Lock()
		up := !rep.down && !rep.repairing
		rep.mu.Unlock()
		if up {
			ups = append(ups, rep)
		}
	}
	slices.SortStableFunc(ups, func(a, b *replicaState) int { return cmp.Compare(a.ewma.Load(), b.ewma.Load()) })
	return ups
}
