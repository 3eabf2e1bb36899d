package cluster

// Batched cluster routing: one client batch is split by ring owner
// into per-group sub-batches that run concurrently, each applied
// through the group's replication policy (quorum fan-out for writes,
// fastest-first failover for reads), and reassembled into the caller's
// op order. Outcomes are per-op throughout — a batch never fails as a
// unit once it reaches the routing layer.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"precursor/internal/audit"
	"precursor/internal/core"
	"precursor/internal/heat"
)

// Batch routes ops to their owning replica groups and executes each
// group's sub-batch concurrently, returning per-op results in the
// caller's op order. The returned error is nil unless the client is
// closed or ops is empty of routable work — every other failure lands
// in its op's BatchResult (with core.ErrUnconfirmed joined for writes
// whose fate is unknown, exactly like the single-op path).
func (c *Client) Batch(ops []core.BatchOp) ([]core.BatchResult, error) {
	return c.BatchContext(context.Background(), ops)
}

// BatchContext is Batch under ctx (see PutContext). The deadline
// propagates through every sub-batch: a ctx with less than minBudget
// of budget left does not fan out at all — every routable op resolves to
// core.ErrTimeout locally, and since nothing was sent, ErrUnconfirmed
// never joins. Mid-batch, a spent ctx stops read failover to further
// replicas, and every backend bounds its frame by the remaining budget.
func (c *Client) BatchContext(ctx context.Context, ops []core.BatchOp) ([]core.BatchResult, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	if len(ops) == 0 {
		return nil, nil
	}
	results := make([]core.BatchResult, len(ops))
	if c.opts.Heat != nil {
		c.opts.Heat.RecordBatch(len(ops))
		for i := range ops {
			c.opts.Heat.Record(batchHeatKind(ops[i].Kind),
				heat.HashKey(ops[i].Key), len(ops[i].Value), 0)
		}
	}
	// Split by owning group, remembering each op's original index so
	// reassembly preserves order across groups.
	type subBatch struct {
		g   *groupState
		ops []core.BatchOp
		idx []int
	}
	subs := make(map[string]*subBatch)
	var order []string
	for i, op := range ops {
		name := c.ring.Lookup(op.Key)
		g := c.groups[name]
		if g == nil {
			results[i].Err = ErrNoShards
			continue
		}
		sb := subs[name]
		if sb == nil {
			sb = &subBatch{g: g}
			subs[name] = sb
			order = append(order, name)
		}
		sb.ops = append(sb.ops, op)
		sb.idx = append(sb.idx, i)
	}
	if err := spent(ctx); err != nil {
		// The parent's budget is (nearly) spent: resolve every routable
		// op with a clean timeout instead of fanning doomed work out to
		// the replicas. Nothing was sent, so ErrUnconfirmed never joins.
		for _, name := range order {
			for _, pi := range subs[name].idx {
				results[pi].Err = err
			}
		}
		return results, nil
	}
	// One umbrella op covers the whole client batch, so a frame that
	// fans out to several groups still stitches into a single trace:
	// each group's sub-batch op adopts this op's ref as its parent.
	op := c.opts.Tracer.Start(int(c.traceSlot.Add(1)), "batch")
	opCtx := op.Continue(ctx) // its own variable: see quorumWrite
	var wg sync.WaitGroup
	for _, name := range order {
		sb := subs[name]
		wg.Add(1)
		go func(sb *subBatch) {
			defer wg.Done()
			var rs []core.BatchResult
			if sb.g.single() {
				rs = c.singleBatch(opCtx, sb.g.replicas[0], sb.ops)
			} else {
				rs = c.replicatedBatch(opCtx, sb.g, sb.ops)
			}
			// Indices are disjoint across sub-batches, so concurrent
			// writes into results never collide.
			for j := range rs {
				results[sb.idx[j]] = rs[j]
			}
		}(sb)
	}
	wg.Wait()
	for i := range results {
		if results[i].Err != nil {
			op.SetError(results[i].Err)
			break
		}
	}
	op.Finish()
	if c.opts.Heat != nil {
		var out int
		for i := range results {
			out += len(results[i].Value)
		}
		c.opts.Heat.AddBytesOut(out)
	}
	return results, nil
}

// batchHeatKind maps batch op kinds to heat collector kinds.
func batchHeatKind(k core.BatchOpKind) heat.Kind {
	switch k {
	case core.BatchPut:
		return heat.KindPut
	case core.BatchDelete:
		return heat.KindDelete
	default:
		return heat.KindGet
	}
}

// singleBatch runs a sub-batch against a single-replica group with the
// original breaker semantics: admitted as one operation, the breaker
// fed the worst shard-level outcome.
func (c *Client) singleBatch(ctx context.Context, rep *replicaState, ops []core.BatchOp) []core.BatchResult {
	tok, err := c.admitLegacy(rep)
	if err != nil {
		return failAll(len(ops), err)
	}
	t0 := time.Now()
	results, berr := rep.backend.BatchContext(ctx, ops)
	rep.recordLatency(t0)
	ferr := c.observe(rep, tok, c.breakerErr(berr, results, false), false, "")
	if len(results) != len(ops) {
		// Batch-level failure before anything was sent (or a broken
		// backend): every op shares the typed outcome.
		if ferr == nil {
			ferr = berr
		}
		if ferr == nil {
			ferr = &ShardError{Shard: rep.name, Err: ErrShardDown}
		}
		return failAll(len(ops), ferr)
	}
	c.tallyBatch(rep, ops, results)
	return results
}

// failAll resolves n ops with the one outcome they share.
func failAll(n int, err error) []core.BatchResult {
	out := make([]core.BatchResult, n)
	for i := range out {
		out[i].Err = err
	}
	return out
}

// breakerErr picks what a replica's breaker should see of one batch
// frame: the batch-level error, else the first per-op shard failure —
// or, for a frame of writes, the first ambiguous outcome.
func (c *Client) breakerErr(berr error, results []core.BatchResult, writes bool) error {
	for i := 0; berr == nil && i < len(results); i++ {
		if err := results[i].Err; err != nil &&
			(c.opts.IsShardFailure(err) || writes && errors.Is(err, core.ErrUnconfirmed)) {
			berr = err
		}
	}
	return berr
}

// tallyBatch bumps per-replica op counters for the sub-batch's
// successful ops.
func (c *Client) tallyBatch(rep *replicaState, ops []core.BatchOp, results []core.BatchResult) {
	for i := range results {
		if results[i].Err != nil {
			continue
		}
		switch ops[i].Kind {
		case core.BatchPut:
			rep.puts.Add(1)
		case core.BatchGet:
			rep.gets.Add(1)
		case core.BatchDelete:
			rep.deletes.Add(1)
		}
	}
}

// replicatedBatch splits a replicated group's sub-batch into its write
// ops (quorum fan-out across replicas) and read ops (fastest-first
// with failover), which run concurrently. Results keep the sub-batch's
// op order; ordering between a batch's writes and reads of the same
// key is not defined in a replicated group (they race like two
// independent clients would).
func (c *Client) replicatedBatch(ctx context.Context, g *groupState, ops []core.BatchOp) []core.BatchResult {
	out := make([]core.BatchResult, len(ops))
	var wOps, rOps []core.BatchOp
	var wIdx, rIdx []int
	for i, op := range ops {
		if op.Kind == core.BatchGet {
			rOps = append(rOps, op)
			rIdx = append(rIdx, i)
		} else {
			wOps = append(wOps, op)
			wIdx = append(wIdx, i)
		}
	}
	var wg sync.WaitGroup
	if len(wOps) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := c.quorumWriteBatch(ctx, g, wOps)
			for j := range rs {
				out[wIdx[j]] = rs[j]
			}
		}()
	}
	if len(rOps) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := c.replicatedGetBatch(ctx, g, rOps)
			for j := range rs {
				out[rIdx[j]] = rs[j]
			}
		}()
	}
	wg.Wait()
	return out
}

// journalKeys journals the given write keys on this replica and
// suspends its serving until repair re-syncs them — the batched
// analogue of observe's failed-write journaling.
func (s *replicaState) journalKeys(journalCap int, keys []string) {
	s.mu.Lock()
	s.repairing = true
	for _, k := range keys {
		s.journalLocked(journalCap, k)
	}
	s.mu.Unlock()
}

// admitWriteBatch is admitWrite for a whole write sub-batch: one lock
// acquisition either admits the replica or journals every key for
// repair.
func (s *replicaState) admitWriteBatch(journalCap int, ops []core.BatchOp) (admitToken, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.down && !s.repairing {
		return admitToken{epoch: s.epoch}, true
	}
	for i := range ops {
		s.journalLocked(journalCap, ops[i].Key)
	}
	s.missed.Add(uint64(len(ops)))
	return admitToken{}, false
}

// quorumWriteBatch fans a write sub-batch out to every live replica
// and counts acks per op: an op succeeds when it reaches the group's
// quorum, independently of its batch-mates. Unlike the single-op
// quorumWrite it waits for every replica (per-op accounting needs the
// full tally); the batch already amortizes the latency. Failed or
// ambiguous ops journal their keys on the replicas that missed them.
func (c *Client) quorumWriteBatch(ctx context.Context, g *groupState, ops []core.BatchOp) []core.BatchResult {
	live := make([]*replicaState, 0, len(g.replicas))
	toks := make([]admitToken, 0, len(g.replicas))
	for _, rep := range g.replicas {
		if tok, ok := rep.admitWriteBatch(c.opts.JournalCap, ops); ok {
			live = append(live, rep)
			toks = append(toks, tok)
		}
	}
	if len(live) == 0 {
		c.noteQuorumShortfall(g, 0, "no live replicas (batch)")
		return failAll(len(ops), &ShardError{Shard: g.name, Err: ErrShardDown})
	}
	op := c.opts.Tracer.Start(int(c.traceSlot.Add(1)), "batch")
	op.SetGroup(g.name)
	opCtx := op.Continue(ctx) // every replica's sub-batch stitches under this op
	defer op.Finish()

	type repRes struct {
		rep        *replicaState
		results    []core.BatchResult
		err        error
		start, end int64
	}
	ch := make(chan repRes, len(live))
	for i, rep := range live {
		go func(rep *replicaState, tok admitToken) {
			s0 := op.Now()
			t0 := time.Now()
			results, berr := rep.backend.BatchContext(opCtx, ops)
			d := time.Since(t0)
			rep.recordLatency(t0)
			rep.noteLatency(d)
			_ = c.observe(rep, tok, c.breakerErr(berr, results, true), true, "")
			ch <- repRes{rep: rep, results: results, err: berr, start: s0, end: op.Now()}
		}(rep, toks[i])
	}

	acks := make([]int, len(ops))
	notFounds := make([]int, len(ops))
	maybeApplied := make([]bool, len(ops))
	firstData := make([]error, len(ops))
	for range live {
		r := <-ch
		op.ReplicaSpanAt(r.rep.name, r.start, r.end)
		if len(r.results) != len(ops) {
			// Whole-replica batch failure: every key must be re-synced to
			// this replica; the frame may have landed if the error says so.
			keys := make([]string, len(ops))
			for j := range ops {
				keys[j] = ops[j].Key
			}
			r.rep.journalKeys(c.opts.JournalCap, keys)
			if errors.Is(r.err, core.ErrUnconfirmed) {
				for j := range maybeApplied {
					maybeApplied[j] = true
				}
			}
			continue
		}
		c.tallyBatch(r.rep, ops, r.results)
		for j := range r.results {
			rerr := r.results[j].Err
			switch {
			case rerr == nil:
				acks[j]++
			case ops[j].Kind == core.BatchDelete && errors.Is(rerr, core.ErrNotFound):
				// Absence is a delete's desired end state.
				acks[j]++
				notFounds[j]++
			case errors.Is(rerr, core.ErrUnconfirmed):
				maybeApplied[j] = true
				r.rep.journalKeys(c.opts.JournalCap, []string{ops[j].Key})
			case c.opts.IsShardFailure(rerr):
				r.rep.journalKeys(c.opts.JournalCap, []string{ops[j].Key})
			default:
				if firstData[j] == nil {
					firstData[j] = rerr
				}
			}
		}
	}

	out := make([]core.BatchResult, len(ops))
	shortfall := false
	minAcks := -1
	for j := range ops {
		switch {
		case acks[j] >= g.quorum:
			if ops[j].Kind == core.BatchDelete && acks[j] == notFounds[j] {
				out[j].Err = core.ErrNotFound
			}
		case acks[j] == 0 && !maybeApplied[j] && firstData[j] != nil:
			// Deterministic rejection on every replica: a clean data
			// error, nothing was applied.
			out[j].Err = firstData[j]
		default:
			shortfall = true
			if minAcks < 0 || acks[j] < minAcks {
				minAcks = acks[j]
			}
			err := fmt.Errorf("%w (%d/%d acks)", ErrNoQuorum, acks[j], g.quorum)
			if acks[j] > 0 || maybeApplied[j] {
				// Partially applied: indeterminate until repair reconverges.
				err = fmt.Errorf("%w; %w", err, core.ErrUnconfirmed)
			}
			out[j].Err = &ShardError{Shard: g.name, Err: err}
		}
	}
	if shortfall {
		c.noteQuorumShortfall(g, minAcks, "batch write")
	}
	return out
}

// replicatedGetBatch serves a read sub-batch from the fastest healthy
// replica, failing the still-unresolved ops over to the next replica
// on shard-level errors and on payload-MAC failures (the Byzantine
// backstop). Data-level outcomes from a healthy replica — the value or
// an authoritative not-found — resolve an op immediately.
func (c *Client) replicatedGetBatch(ctx context.Context, g *groupState, ops []core.BatchOp) []core.BatchResult {
	op := c.opts.Tracer.Start(int(c.traceSlot.Add(1)), "batch")
	op.SetGroup(g.name)
	ctx = op.Continue(ctx)
	defer op.Finish()
	out := make([]core.BatchResult, len(ops))
	var ups [readOrderStack]*replicaState
	order := g.readOrder(ups[:0])
	probeFallback := len(order) == 0
	if probeFallback {
		order = g.replicas
	}
	pending := make([]int, len(ops))
	for i := range pending {
		pending[i] = i
	}
	var lastErr error
	attempted := 0
	for _, rep := range order {
		if len(pending) == 0 {
			break
		}
		if err := spent(ctx); err != nil && attempted > 0 {
			// The parent budget is spent: stop failing over. The pending
			// ops resolve ErrTimeout below (reads — never unconfirmed).
			lastErr = err
			break
		}
		var tok admitToken
		var ok bool
		if probeFallback {
			tok, ok = rep.admitProbe()
		} else {
			tok, ok = rep.admitRead()
		}
		if !ok {
			continue
		}
		attempted++
		sub := make([]core.BatchOp, len(pending))
		for j, pi := range pending {
			sub[j] = ops[pi]
		}
		s0 := op.Now()
		t0 := time.Now()
		results, berr := rep.backend.BatchContext(ctx, sub)
		d := time.Since(t0)
		rep.recordLatency(t0)
		ferr := c.observe(rep, tok, c.breakerErr(berr, results, false), true, "")
		op.ReplicaSpanAt(rep.name, s0, op.Now())
		if len(results) != len(sub) {
			if ferr != nil {
				lastErr = ferr
			} else if berr != nil {
				lastErr = berr
			}
			continue // whole sub-batch fails over to the next replica
		}
		rep.noteLatency(d)
		resolved := 0
		byzantine := false
		var remaining []int
		for j := range results {
			pi := pending[j]
			rerr := results[j].Err
			switch {
			case rerr == nil:
				out[pi] = results[j]
				rep.gets.Add(1)
				resolved++
			case errors.Is(rerr, core.ErrIntegrity):
				byzantine = true
				remaining = append(remaining, pi)
				lastErr = rerr
			case c.opts.IsShardFailure(rerr):
				remaining = append(remaining, pi)
				lastErr = rerr
			default:
				// Data-level and authoritative (not-found from a healthy
				// replica, malformed-response, …).
				out[pi] = results[j]
				resolved++
			}
		}
		if byzantine {
			c.opts.Audit.Add(audit.Record{Kind: audit.KindByzantineFailover, Actor: rep.name,
				Detail: fmt.Sprintf("group %s: batched read payload MAC failed verification", g.name)})
			c.opts.Tracer.NoteFault(fmt.Sprintf("byzantine failover group=%s replica=%s (batch)", g.name, rep.name))
		}
		if resolved > 0 && attempted > 1 {
			c.failovers.Add(1)
			c.opts.Audit.Add(audit.Record{Kind: audit.KindReadFailover, Actor: rep.name,
				Detail: fmt.Sprintf("group %s: %d batched reads served by attempt %d", g.name, resolved, attempted)})
		}
		pending = remaining
	}
	for _, pi := range pending {
		switch {
		case attempted == 0:
			out[pi].Err = &ShardError{Shard: g.name, Err: ErrShardDown}
		case lastErr != nil:
			out[pi].Err = lastErr
		default:
			out[pi].Err = &ShardError{Shard: g.name, Err: ErrShardDown}
		}
	}
	return out
}
