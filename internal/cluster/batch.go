package cluster

// Batched cluster routing: one client batch is split by ring owner into
// per-group sub-batches that run concurrently, each applied through the
// group's one route — its writes as one work list through the quorum
// fan-out, then its gets as one through the read walk — and reassembled
// into the caller's op order. Outcomes are per-op throughout — a batch
// never fails as a unit once it reaches the routing layer.

import (
	"context"
	"sync"

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
	defer c.recordBatchHeat(ops, results)
	if err := spent(ctx); err != nil {
		// The parent's budget is (nearly) spent: resolve every op with a
		// clean timeout instead of fanning doomed work out to the replicas.
		// Nothing was sent, so ErrUnconfirmed never joins.
		for i := range results {
			results[i].Err = err
		}
		return results, nil
	}
	// Split by owning group, writes apart from gets, remembering each op's
	// original index so reassembly preserves order across groups.
	subs := make(map[string]*subBatch)
	var order []*subBatch
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
			order = append(order, sb)
		}
		part := &sb.writes
		if op.Kind == core.BatchGet {
			part = &sb.reads
		}
		part.ops, part.idx = append(part.ops, op), append(part.idx, i)
	}
	// One umbrella op covers the whole client batch, so a frame that
	// fans out to several groups still stitches into a single trace:
	// each group's write and read op adopts this op's ref as its parent.
	op := c.opts.Tracer.Start(int(c.traceSlot.Add(1)), "batch")
	opCtx := op.Continue(ctx) // its own variable: the goroutines below capture it
	if len(order) == 1 {
		c.groupBatch(opCtx, order[0], results) // nobody to overlap with: no hand-off
	} else {
		var wg sync.WaitGroup
		for _, sb := range order {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Indices are disjoint across sub-batches, so concurrent
				// writes into results never collide.
				c.groupBatch(opCtx, sb, results)
			}()
		}
		wg.Wait()
	}
	for i := range results {
		if results[i].Err != nil {
			op.SetError(results[i].Err)
			break
		}
	}
	op.Finish()
	return results, nil
}

// recordBatchHeat records a client batch's heat once its results are in.
func (c *Client) recordBatchHeat(ops []core.BatchOp, results []core.BatchResult) {
	if h := c.opts.Heat; h != nil {
		h.RecordBatch(len(ops))
		out := 0
		for i := range ops {
			h.Record(batchHeatKind(ops[i].Kind), heat.HashKey(ops[i].Key), len(ops[i].Value), 0)
			out += len(results[i].Value)
		}
		h.AddBytesOut(out)
	}
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

// subBatch is one group's share of a client batch.
type subBatch struct {
	g             *groupState
	writes, reads workList
}

// workList is ops of one class bound for one group, each with its index in
// the client batch.
type workList struct {
	ops []core.BatchOp
	idx []int
}

// scatter puts the list's outcomes at its ops' places in the client batch.
func (w *workList) scatter(out, results []core.BatchResult) {
	for j, pi := range w.idx {
		results[pi] = out[j]
	}
}

// groupBatch applies one group's share of a batch: the writes first, then
// the gets, so a batch reads its own writes on every group size.
func (c *Client) groupBatch(ctx context.Context, sb *subBatch, results []core.BatchResult) {
	if w := &sb.writes; len(w.ops) > 0 {
		out := make([]core.BatchResult, len(w.ops))
		c.write(ctx, sb.g, "batch", w.ops, out)
		w.scatter(out, results)
	}
	if r := &sb.reads; len(r.ops) > 0 {
		out := make([]core.BatchResult, len(r.ops))
		c.read(ctx, sb.g, "batch", r.ops, out)
		r.scatter(out, results)
	}
}
