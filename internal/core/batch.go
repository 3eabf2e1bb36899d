package core

// Client-side multi-op batching: N operations ride one sealed control
// blob and one ring doorbell (wire.OpBatch), amortizing the per-op
// AEAD seal/verify and doorbell cost that dominates small-value
// workloads. The synchronous Batch waits for the single sealed reply;
// BatchAsync pipelines — several batches may be in flight per
// connection, each resolved by oid when its authenticated reply
// arrives, which is also why reply matching is a map rather than the
// single-op path's one-oid comparison: the server's sender pool may
// reorder same-session replies.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"precursor/internal/cryptox"
	"precursor/internal/obs"
	"precursor/internal/wire"
)

// BatchOpKind selects the operation a BatchOp performs.
type BatchOpKind uint8

// Batch operation kinds.
const (
	// BatchPut stores Value under Key.
	BatchPut BatchOpKind = iota + 1
	// BatchGet fetches Key's value into the op's BatchResult.
	BatchGet
	// BatchDelete removes Key.
	BatchDelete
)

// BatchOp is one operation inside a client batch.
type BatchOp struct {
	// Kind selects put, get or delete.
	Kind BatchOpKind
	// Key is the operation's key (required).
	Key string
	// Value is the value to store (BatchPut only).
	Value []byte
}

// BatchResult is one op's outcome. Batch outcomes are per-op: a batch
// that reaches the server is applied op by op, and each op's fate —
// including ErrUnconfirmed attribution for writes on timeout — lands in
// its own slot.
type BatchResult struct {
	// Value is the fetched value (successful BatchGet only).
	Value []byte
	// Err is the op's outcome: nil on success, ErrNotFound, or — for
	// writes whose fate is unknown — the causal error joined with
	// ErrUnconfirmed, mirroring single-op semantics.
	Err error
}

// BatchFuture is a pipelined batch's pending result, returned by
// BatchAsync. Wait blocks (driving the connection's poll loop) until
// the batch's sealed reply arrives or the deadline passes. A future is
// tied to the client that issued it and shares its serialization: Wait
// and other client operations may be called from different goroutines.
type BatchFuture struct {
	c        *Client
	oid      uint64
	kinds    []BatchOpKind
	results  []BatchResult
	op       *obs.Op
	sendEnd  int64
	deadline time.Time
	done     bool
	err      error
}

// maxPipelined bounds the batches one connection may have in flight at
// once — enough to keep the ring busy, small enough that a stalled
// server cannot strand unbounded client state. It is the ceiling of
// the per-connection AIMD window (Client.window): the live limit
// adapts within [1, maxPipelined], shrinking multiplicatively on
// RETRY_LATER and timeout signals and recovering additively on
// successes, so an overloaded server sees its offered load fall
// instead of a wall of retries.
const maxPipelined = 16

// Batch executes ops as one frame — one oid, one control seal, one
// ring doorbell — and returns per-op results in request order. The
// returned error is batch-level (validation, transport, timeout);
// per-op outcomes, including partial failures, are in the results. On
// a batch-level error after the frame was sent, write ops additionally
// carry ErrUnconfirmed in their slots.
func (c *Client) Batch(ops []BatchOp) ([]BatchResult, error) {
	return c.BatchContext(context.Background(), ops)
}

// BatchContext is Batch under ctx (see PutContext): the frame's deadline
// is the earlier of Timeout and ctx's, so a parent budget propagates
// through batch sub-ops instead of being silently extended; a spent ctx
// fails fast with ErrTimeout — nothing reaches the wire, nothing is
// unconfirmed; and the span ref ctx carries parents the batch span and
// rides the sealed batch control to the server's batch span.
func (c *Client) BatchContext(ctx context.Context, ops []BatchOp) ([]BatchResult, error) {
	f, err := c.batchAsync(ctx, ops)
	if err != nil {
		return nil, err
	}
	return f.Wait()
}

// BatchAsync sends ops as one frame and returns immediately with a
// future; up to maxPipelined batches may be in flight per connection.
// The frame is sent (with credit wait) before BatchAsync returns, so a
// nil-error return means the request is on the wire.
func (c *Client) BatchAsync(ops []BatchOp) (*BatchFuture, error) {
	return c.batchAsync(context.Background(), ops)
}

func (c *Client) batchAsync(ctx context.Context, ops []BatchOp) (*BatchFuture, error) {
	if len(ops) == 0 || len(ops) > wire.MaxBatchOps {
		return nil, fmt.Errorf("%w: batch of %d ops (1..%d)", ErrTooLarge, len(ops), wire.MaxBatchOps)
	}
	for i := range ops {
		op := &ops[i]
		if op.Kind != BatchPut && op.Kind != BatchGet && op.Kind != BatchDelete {
			return nil, fmt.Errorf("precursor: batch op %d has invalid kind %d", i, op.Kind)
		}
		if len(op.Key) == 0 || len(op.Key) > wire.MaxKeyLen {
			return nil, fmt.Errorf("%w: op %d key", ErrTooLarge, i)
		}
		if op.Kind == BatchPut && len(op.Value) > wire.MaxValueLen {
			return nil, fmt.Errorf("%w: op %d value", ErrTooLarge, i)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	// The deadline is stamped at entry, before the backpressure drain
	// below: time spent waiting for a pipelining slot counts against
	// this batch's budget, so a nearly-expired parent surfaces
	// ErrTimeout here instead of fanning out doomed work with a
	// quietly extended deadline.
	deadline, err := OpDeadline(ctx, c.cfg.Timeout)
	if err != nil {
		return nil, err
	}
	for len(c.inflight) >= c.window.Limit() {
		// Drain the oldest reply before admitting more pipelined state.
		c.waitAnyLocked()
		if time.Now().After(deadline) {
			// Nothing was sent, nothing is unconfirmed.
			return nil, ErrTimeout
		}
	}
	return c.startBatchLocked(ops, deadline, obs.RefFrom(ctx))
}

// startBatchLocked assembles, seals and sends one batch frame under its
// own trace, which a failure before the frame is in the ring finishes
// here. Called with mu held.
func (c *Client) startBatchLocked(ops []BatchOp, deadline time.Time, ref obs.SpanRef) (*BatchFuture, error) {
	op, ref := c.startTrace("batch", ref)
	f, err := c.sendBatchLocked(ops, deadline, ref, op)
	if err != nil {
		op.SetError(err)
		op.Finish()
	}
	return f, err
}

// sendBatchLocked is startBatchLocked's assembly and send. Scratch
// buffers on the client are reused across batches, so steady-state
// assembly costs no allocations beyond the future itself and one AES key
// schedule per encrypted put (the MAC under its one-time key).
func (c *Client) sendBatchLocked(ops []BatchOp, deadline time.Time, ref obs.SpanRef, op *obs.Op) (*BatchFuture, error) {
	t0 := op.Now()
	c.oid++
	c.bctl.Oid = c.oid
	// Assigned unconditionally: bctl is reused scratch, and a stale
	// context from the previous batch must not leak into this frame.
	c.bctl.Trace = traceCtx(ref)
	c.bctl.Ops = c.bctl.Ops[:0]
	c.payloadBuf = c.payloadBuf[:0]
	if cap(c.opKeys) < len(ops) {
		c.opKeys = make([]cryptox.OperationKey, len(ops))
	}
	c.opKeys = c.opKeys[:len(ops)]
	// Keys are staged back to back in scratch; sized up front so the
	// per-op slices below never move.
	keyBytes := 0
	for i := range ops {
		keyBytes += len(ops[i].Key)
	}
	c.keyBuf = slices.Grow(c.keyBuf[:0], keyBytes)

	kinds := make([]BatchOpKind, len(ops))
	for i := range ops {
		keyAt := len(c.keyBuf)
		c.keyBuf = append(c.keyBuf, ops[i].Key...)
		bop := wire.BatchOp{Key: c.keyBuf[keyAt:]}
		kinds[i] = ops[i].Kind
		switch ops[i].Kind {
		case BatchPut:
			bop.Op = wire.OpPut
			if c.cfg.InlineSmallValues && len(ops[i].Value) < c.cfg.InlineMax {
				bop.Flags = wire.FlagInlineValue
				bop.InlineValue = ops[i].Value
			} else {
				// nonce‖ciphertext‖MAC lands directly in the frame's
				// payload region; the op's extent is what was appended.
				payloadAt := len(c.payloadBuf)
				var err error
				if !c.serverEnc {
					c.opKeys[i], err = cryptox.NewOperationKey()
					bop.OpKey = c.opKeys[i][:]
				}
				if err == nil {
					c.payloadBuf, err = c.sealValue(c.payloadBuf, &c.opKeys[i], ops[i].Value, c.oid, i)
				}
				if err != nil {
					return nil, err
				}
				bop.PayloadLen = uint32(len(c.payloadBuf) - payloadAt)
			}
		case BatchGet:
			bop.Op = wire.OpGet
		case BatchDelete:
			bop.Op = wire.OpDelete
		}
		c.bctl.Ops = append(c.bctl.Ops, bop)
	}

	var err error
	if c.ctlBuf, err = wire.AppendBatchControl(c.ctlBuf[:0], &c.bctl); err != nil {
		return nil, err
	}
	if c.sealedBuf, err = c.aead.SealAppend(c.sealedBuf[:0], c.ctlBuf, c.ad[:]); err != nil {
		return nil, err
	}
	breq := wire.BatchRequest{
		ClientID:      c.id,
		Count:         len(ops),
		SealedControl: c.sealedBuf,
		Payload:       c.payloadBuf,
	}
	if c.frameBuf, err = breq.AppendTo(c.frameBuf[:0]); err != nil {
		return nil, err
	}
	if len(c.frameBuf) > c.reqWriter.MaxMessage() {
		return nil, fmt.Errorf("%w: batch frame of %d bytes exceeds ring slot (%d)",
			ErrTooLarge, len(c.frameBuf), c.reqWriter.MaxMessage())
	}
	t0 = op.SpanEnd(obs.CliBatch, t0)
	if t0, err = c.sendFrameLocked(op, t0, deadline); err != nil {
		return nil, err
	}

	f := &BatchFuture{
		c:        c,
		oid:      c.oid,
		kinds:    kinds,
		results:  make([]BatchResult, len(ops)),
		op:       op,
		sendEnd:  t0,
		deadline: deadline,
	}
	if c.inflight == nil {
		c.inflight = make(map[uint64]*BatchFuture)
	}
	c.inflight[f.oid] = f
	c.batches++
	c.batchedOps += uint64(len(ops))
	return f, nil
}

// Wait blocks until the batch's reply arrives or its deadline passes,
// then returns the per-op results. On timeout, write ops (put/delete)
// resolve with ErrTimeout joined with ErrUnconfirmed — the frame was
// on the wire and may have been applied — while reads resolve with
// plain ErrTimeout; the batch-level error is ErrTimeout. Wait is
// idempotent: later calls return the resolved results.
func (f *BatchFuture) Wait() ([]BatchResult, error) {
	c := f.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for !f.done {
		if c.closed {
			f.resolveFailureLocked(ErrClosed)
			break
		}
		// No single op is waiting: whatever authenticated frame arrives
		// is a batch reply (resolving its future) or stale.
		if _, _, err := c.recvLocked(nil, f.deadline); err != nil {
			f.resolveFailureLocked(err)
			break
		}
	}
	return f.results, f.err
}

// Err returns the batch-level error after Wait resolved the future
// (nil while pending or on success).
func (f *BatchFuture) Err() error {
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	return f.err
}

// waitAnyLocked drives the poll loop until any inflight batch
// resolves, the earliest deadline passes, or the connection dies.
// Called with mu held.
func (c *Client) waitAnyLocked() {
	var oldest *BatchFuture
	for _, f := range c.inflight {
		if oldest == nil || f.oid < oldest.oid {
			oldest = f
		}
	}
	for before := len(c.inflight); oldest != nil && len(c.inflight) >= before; {
		if _, _, err := c.recvLocked(nil, oldest.deadline); err != nil {
			oldest.resolveFailureLocked(err)
		}
	}
}

// resolveBatchReplyLocked matches an authenticated batch reply to its
// inflight future and fills per-op results. Unmatched oids count as
// stale; malformed-but-authenticated replies resolve the future with
// ErrBadResponse. Called with mu held.
func (c *Client) resolveBatchReplyLocked(pt, payload []byte) {
	if err := wire.DecodeBatchReply(pt, &c.brep); err != nil {
		c.badFrames++
		return
	}
	f := c.inflight[c.brep.Oid]
	if f == nil || f.done {
		c.staleFrames++
		return
	}
	if c.brep.Flags&wire.FlagReplay != 0 {
		// The server saw this oid twice (a duplicated in-flight frame);
		// the copy that answered first decided the ops, so this copy's
		// fate is unknown exactly like a single-op replay.
		f.resolveFailureLocked(ErrReplay)
		return
	}
	if c.brep.Flags&wire.FlagRetryLater != 0 {
		// The admission gate shed the whole frame as a unit: the oid is
		// burned server-side, nothing was applied, and every op — reads
		// and writes alike — resolves with a plain retryable
		// RetryLaterError (never ErrUnconfirmed). The shed is a
		// congestion signal for this connection's pipelining window.
		var hint time.Duration
		if len(c.brep.Results) > 0 {
			hint = RetryHint(c.brep.Results[0].InlineValue)
		}
		c.retryLaters++
		c.window.OnCongestion()
		shed := &RetryLaterError{Hint: hint}
		for i := range f.kinds {
			f.results[i] = BatchResult{Err: shed}
		}
		f.finishLocked(shed)
		return
	}
	if len(c.brep.Results) != len(f.kinds) ||
		c.brep.ValidateReplyExtents(len(payload)) != nil {
		f.resolveFailureLocked(ErrBadResponse)
		return
	}
	off := 0
	for i := range c.brep.Results {
		res := &c.brep.Results[i]
		seg := payload[off : off+int(res.PayloadLen)]
		off += int(res.PayloadLen)
		f.results[i] = c.batchOpResult(f.kinds[i], res, seg, f.oid, i)
	}
	c.window.OnSuccess()
	f.finishLocked(nil)
}

// batchOpResult converts one sealed per-op result into the client-side
// outcome, decrypting get payloads (op idx of the frame with oid). res and
// seg alias the client's scratch (opened control and poll buffer), so
// values are copied or decrypted into fresh memory before returning.
func (c *Client) batchOpResult(kind BatchOpKind, res *wire.BatchOpResult, seg []byte, oid uint64, idx int) BatchResult {
	switch res.Status {
	case wire.StatusOK:
	case wire.StatusNotFound:
		return BatchResult{Err: ErrNotFound}
	case wire.StatusBadRequest:
		return BatchResult{Err: ErrBadResponse}
	case wire.StatusRetryLater:
		// A per-op shed inside an otherwise-applied batch (defensive —
		// the gate sheds whole frames). Plain and retryable, never
		// unconfirmed: the server guarantees the op was not applied.
		return BatchResult{Err: &RetryLaterError{Hint: RetryHint(res.InlineValue)}}
	default:
		return BatchResult{Err: fmt.Errorf("%w: server status %v", ErrBadResponse, res.Status)}
	}
	if res.Flags&wire.FlagNotFound != 0 {
		return BatchResult{Err: ErrNotFound}
	}
	if kind != BatchGet {
		return BatchResult{}
	}
	if res.Flags&wire.FlagInlineValue != 0 {
		return BatchResult{Value: append([]byte(nil), res.InlineValue...)}
	}
	value, err := c.openValue(res.OpKey, res.PayloadMAC, seg, oid, idx)
	return BatchResult{Value: value, Err: err}
}

// resolveFailureLocked resolves every op of a failed batch with
// per-op attribution: the frame was sent, so writes carry
// ErrUnconfirmed joined onto the cause while reads get the cause
// alone. ErrBadResponse joins too — a malformed-but-authenticated
// reply leaves write fates unknown (unlike a per-op StatusBadRequest,
// which is a definitive pre-apply rejection and stays plain). Called
// with mu held.
func (f *BatchFuture) resolveFailureLocked(cause error) {
	if errors.Is(cause, ErrTimeout) {
		// A pipelined batch dying on its deadline is a congestion signal:
		// shrink the window so the connection stops piling work onto a
		// server that cannot drain it.
		f.c.window.OnCongestion()
	}
	unconfirmed := writeOutcome(cause)
	if errors.Is(cause, ErrBadResponse) {
		unconfirmed = fmt.Errorf("%w; %w", cause, ErrUnconfirmed)
	}
	for i, k := range f.kinds {
		if k == BatchGet {
			f.results[i] = BatchResult{Err: cause}
		} else {
			f.results[i] = BatchResult{Err: unconfirmed}
		}
	}
	f.finishLocked(cause)
}

// finishLocked marks the future resolved — which ends the connection's
// wait, if one is open — removes it from the inflight map and closes its
// trace. Called with mu held.
func (f *BatchFuture) finishLocked(err error) {
	f.c.wait.Done()
	f.done = true
	f.err = err
	delete(f.c.inflight, f.oid)
	if f.op != nil {
		f.op.Span(obs.CliRespWait, f.sendEnd)
		f.op.SetOid(f.oid)
		if err != nil {
			f.op.SetError(err)
			if errors.Is(err, ErrUnconfirmed) || errors.Is(err, ErrTimeout) || errors.Is(err, ErrReplay) {
				f.op.MarkUnconfirmed()
			}
		}
		f.op.Finish()
		f.op = nil
	}
}
