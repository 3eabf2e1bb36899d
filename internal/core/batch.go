package core

// The client's one frame kind: every request — a Put, Get or Delete as
// much as a Batch — is a wire.OpBatch frame whose ops ride one sealed
// control blob and one ring doorbell; a single op is a frame of one. A
// connection has one frame in flight (§3.7): the call awaits it by oid with
// the pending state on its own stack, and more concurrency is more
// connections (Pool).

import (
	"context"
	"fmt"
	"slices"
	"time"

	"precursor/internal/cryptox"
	"precursor/internal/obs"
	"precursor/internal/wire"
)

// BatchOpKind selects the operation a BatchOp performs.
type BatchOpKind uint8

// Batch operation kinds. Each is its op's wire opcode.
const (
	// BatchPut stores Value under Key.
	BatchPut = BatchOpKind(wire.OpPut)
	// BatchGet fetches Key's value into the op's BatchResult.
	BatchGet = BatchOpKind(wire.OpGet)
	// BatchDelete removes Key.
	BatchDelete = BatchOpKind(wire.OpDelete)
)

// BatchOp is one operation inside a client batch.
type BatchOp struct {
	// Kind selects put, get or delete.
	Kind BatchOpKind
	// Key is the operation's key (required).
	Key string
	// Value is the value to store (BatchPut only).
	Value []byte
	// args are a repair op's sealed arguments; Value is then its chunk
	// (repair.go).
	args []byte
}

// BatchResult is one op's outcome. Batch outcomes are per-op: a batch
// that reaches the server is applied op by op, and each op's fate —
// including ErrUnconfirmed attribution for writes on timeout — lands in
// its own slot.
type BatchResult struct {
	// Value is the fetched value (successful BatchGet only; nil when the
	// value is empty). A frame's values are windows of one block of their
	// exact total size, each with its capacity clipped to its length, so
	// an append to one never writes into another. Holding one keeps the
	// whole block reachable: no more than the reply it came in, one
	// response-ring slot (DefaultSlotSize).
	Value []byte
	// Err is the op's outcome: nil on success, ErrNotFound, or — for
	// writes whose fate is unknown — the causal error joined with
	// ErrUnconfirmed, mirroring single-op semantics.
	Err error
}

// pending is a frame on the wire awaiting its reply: its oid, its ops'
// kinds in frame order and the results the reply resolves into. The call
// keeps it on its own stack.
type pending struct {
	oid     uint64
	kinds   []BatchOpKind
	results []BatchResult
	op      *obs.Op // the frame's trace, nil when tracing is off
	sendEnd int64   // the ring write's end, where cli_resp_wait starts
	done    bool
}

// Batch executes ops as one frame — one oid, one control seal, one
// ring doorbell — and returns per-op results in request order. The
// returned error is batch-level (validation, transport, timeout);
// per-op outcomes, including partial failures, are in the results. On
// a batch-level error after the frame was sent, write ops additionally
// carry ErrUnconfirmed in their slots; a frame kept off the wire gives
// every op its error, plain. A frame of only gets is retried as Get is.
func (c *Client) Batch(ops []BatchOp) ([]BatchResult, error) {
	return c.BatchContext(context.Background(), ops)
}

// BatchContext is Batch under ctx (see PutContext): the frame's deadline
// is the earlier of Timeout and ctx's, so a parent budget propagates
// through batch sub-ops instead of being silently extended; a spent ctx
// fails fast with ErrTimeout — nothing reaches the wire, nothing is
// unconfirmed; and the span ref ctx carries parents the frame's span and
// rides the sealed control to the server's.
func (c *Client) BatchContext(ctx context.Context, ops []BatchOp) ([]BatchResult, error) {
	if err := checkOps(ops); err != nil {
		return nil, err
	}
	res := make([]BatchResult, len(ops))
	return res, c.run(ctx, ops, res)
}

// checkOps validates a batch before anything is locked or sent.
func checkOps(ops []BatchOp) error {
	if len(ops) == 0 || len(ops) > wire.MaxBatchOps {
		return fmt.Errorf("%w: batch of %d ops (1..%d)", ErrTooLarge, len(ops), wire.MaxBatchOps)
	}
	for i := range ops {
		op := &ops[i]
		if op.Kind != BatchPut && op.Kind != BatchGet && op.Kind != BatchDelete {
			return fmt.Errorf("precursor: batch op %d has invalid kind %d", i, op.Kind)
		}
		if len(op.Key) == 0 || len(op.Key) > wire.MaxKeyLen {
			return fmt.Errorf("%w: op %d key", ErrTooLarge, i)
		}
		if op.Kind == BatchPut && len(op.Value) > wire.MaxValueLen {
			return fmt.Errorf("%w: op %d value", ErrTooLarge, i)
		}
	}
	return nil
}

// sendLocked assembles ops into one frame under the next oid and writes it
// into the request ring, waiting for credit until deadline. The frame is
// built in place in c.frameBuf. Every extent is known before anything is
// sealed — an external value's is its length plus its placement's sealing
// overhead — so the frame is reserved whole, the control is sealed behind
// the header's bytes and each external value behind that; the header goes
// in last. p takes the frame's oid, its ops' kinds (c.kinds: scratch, valid
// until the next frame) and the ring write's end. A frame of one records
// cli_seal and cli_encrypt on p.op, a larger one cli_batch. Steady state,
// nothing allocates: each encrypted put's one-time MAC key is expanded in
// place in the connection's PayloadCipher. Called with mu held.
func (c *Client) sendLocked(ops []BatchOp, p *pending, deadline time.Time, ref obs.SpanRef) error {
	t := p.op.Now()
	c.oid++
	// Every field is assigned: bctl is reused scratch, and a stale trace
	// context from the previous frame must not leak into this one.
	c.bctl.Oid, c.bctl.Trace, c.bctl.Ops = c.oid, traceCtx(ref), c.bctl.Ops[:0]
	c.kinds = c.kinds[:0]
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
	payloadLen := 0
	for i := range ops {
		o := &ops[i]
		keyAt := len(c.keyBuf)
		c.keyBuf = append(c.keyBuf, o.Key...)
		bop := wire.BatchOp{Op: wire.Opcode(o.Kind), Key: c.keyBuf[keyAt:]}
		switch {
		case o.Kind > BatchDelete: // a repair op: sealed arguments, its chunk as is
			bop.InlineValue, bop.PayloadLen = o.args, uint32(len(o.Value))
		case o.Kind != BatchPut:
		case len(o.Value) < c.inlineMax:
			bop.Flags, bop.InlineValue = wire.FlagInlineValue, o.Value
		case c.serverEnc:
			bop.PayloadLen = uint32(len(o.Value) + cryptox.SealOverhead)
		default:
			var err error
			if c.opKeys[i], err = cryptox.NewOperationKey(); err != nil {
				return err
			}
			bop.OpKey = c.opKeys[i][:]
			bop.PayloadLen = uint32(len(o.Value) + cryptox.PayloadSealOverhead)
		}
		payloadLen += int(bop.PayloadLen)
		c.bctl.Ops = append(c.bctl.Ops, bop)
		c.kinds = append(c.kinds, o.Kind)
	}
	var err error
	if c.ctlBuf, err = wire.AppendBatchControl(c.ctlBuf[:0], &c.bctl); err != nil {
		return err
	}
	head := (&wire.BatchRequest{}).EncodedLen()
	ctlEnd := head + len(c.ctlBuf) + cryptox.SealOverhead
	if n := ctlEnd + payloadLen; n > c.reqWriter.MaxMessage() {
		// Refused before any sealing: an oversized value must not leave an
		// oversized scratch frame behind.
		return fmt.Errorf("%w: frame of %d bytes exceeds ring slot (%d)", ErrTooLarge, n, c.reqWriter.MaxMessage())
	}
	frame := slices.Grow(c.frameBuf[:0], ctlEnd+payloadLen)[:head]
	if frame, err = c.aead.SealAppend(frame, c.ctlBuf, c.ad[:]); err != nil {
		return err
	}
	if len(ops) == 1 {
		t = p.op.SpanEnd(obs.CliSeal, t)
	}
	for i := range ops {
		switch {
		case c.bctl.Ops[i].PayloadLen == 0:
		case ops[i].Kind > BatchDelete:
			// A repair op's chunk is sealed by the snapshot's own AEAD.
			frame = append(frame, ops[i].Value...)
		default:
			if frame, err = c.sealValue(frame, &c.opKeys[i], ops[i].Value, c.oid, i); err != nil {
				return err
			}
		}
	}
	switch {
	case len(ops) > 1:
		t = p.op.SpanEnd(obs.CliBatch, t)
	case payloadLen > 0:
		t = p.op.SpanEnd(obs.CliEncrypt, t)
	}
	// The header goes in over the bytes reserved for it; AppendTo then
	// copies each segment onto itself.
	req := wire.BatchRequest{ClientID: c.id, Count: len(ops), SealedControl: frame[head:ctlEnd], Payload: frame[ctlEnd:]}
	if c.frameBuf, err = req.AppendTo(frame[:0]); err != nil {
		return err
	}
	if t, err = c.sendFrameLocked(p.op, t, deadline); err != nil {
		return err
	}
	p.oid, p.kinds, p.sendEnd = c.oid, c.kinds, t
	if len(ops) > 1 {
		c.batches++
		c.batchedOps += uint64(len(ops))
	}
	return nil
}

// sealValue appends a put's payload extent to dst: nonce‖ciphertext‖MAC
// under the one-time key k, or under server encryption nonce‖ciphertext‖tag
// under K_session, bound to op idx of frame oid.
func (c *Client) sealValue(dst []byte, k *cryptox.OperationKey, value []byte, oid uint64, idx int) ([]byte, error) {
	if c.serverEnc {
		return c.aead.SealAppend(dst, value, c.payAD.of(c.id, oid, idx))
	}
	return c.payload.SealAppend(dst, k, value)
}

// awaitLocked drives the poll loop until p is resolved, by its reply or by
// the failure that ends the wait, and returns the frame-level error.
// Called with mu held.
func (c *Client) awaitLocked(p *pending, deadline time.Time) error {
	for {
		err := c.recvLocked(p, deadline)
		if p.done {
			return err
		}
		if err != nil {
			return c.resolveLocked(p, nil, err)
		}
	}
}

// resolveLocked decides every op of p — from its authenticated reply,
// c.brep, with payload the reply's payload region, or, cause non-nil,
// from the failure that ended the wait — and returns the frame-level
// error. Each op that succeeded is counted by kind. Called with mu held.
//
//   - A sent frame that fails resolves with per-op attribution: writes
//     carry ErrUnconfirmed joined onto the cause, reads the cause alone. A
//     timeout and a connection that died under the frame are such failures,
//     and so are a replay rejection (the copy of the frame that came first
//     decided the ops) and a malformed-but-authenticated reply (it does not
//     say what was applied), unlike a per-op StatusBadRequest, a definitive
//     pre-apply rejection that stays plain.
//   - A shed frame resolves every op, reads and writes alike, with a plain
//     retryable RetryLaterError: the server burned the oid and applied
//     nothing.
func (c *Client) resolveLocked(p *pending, payload []byte, cause error) error {
	p.op.Span(obs.CliRespWait, p.sendEnd)
	c.wait.Done()
	p.done = true
	switch {
	case cause != nil:
	case c.brep.Flags&wire.FlagReplay != 0:
		cause = ErrReplay
	case c.brep.Flags&wire.FlagRetryLater != 0:
		var hint time.Duration
		if len(c.brep.Results) > 0 {
			hint = RetryHint(c.brep.Results[0].InlineValue)
		}
		c.retryLaters++
		return fail(p.results, &RetryLaterError{Hint: hint})
	case len(c.brep.Results) != len(p.kinds) || c.brep.ValidateReplyExtents(len(payload)) != nil:
		cause = ErrBadResponse
	}
	if cause != nil {
		unconfirmed := fmt.Errorf("%w; %w", cause, ErrUnconfirmed)
		for i, k := range p.kinds {
			p.results[i] = BatchResult{Err: unconfirmed}
			if k == BatchGet {
				p.results[i].Err = cause
			}
		}
		return cause
	}
	// A frame of one verifies its get on the op's trace (cli_verify); a
	// larger frame's trace keeps its one cli_batch span.
	verify := p.op
	if len(p.kinds) > 1 {
		verify = nil
	}
	// The frame's get values are carved from one block of their exact
	// total size, each op's window clipped to its value's length.
	total := 0
	for i := range c.brep.Results {
		total += c.valueLen(p.kinds[i], &c.brep.Results[i])
	}
	block := make([]byte, total) // zero bytes: no allocation
	off := 0
	for i := range c.brep.Results {
		res := &c.brep.Results[i]
		seg := payload[off : off+int(res.PayloadLen)]
		off += int(res.PayloadLen)
		var dst []byte // a zero-length value stays nil
		if n := c.valueLen(p.kinds[i], res); n > 0 {
			dst, block = block[:0:n], block[n:]
		}
		if p.results[i] = c.opResult(p.kinds[i], res, seg, dst, p.oid, i, verify); p.results[i].Err == nil && p.kinds[i] <= BatchDelete {
			c.completed[p.kinds[i]]++
		}
	}
	return nil
}

// valueLen is the plaintext length of a successful get's value, read
// from its authenticated result: the inline value, or the payload extent
// less its placement's sealing overhead. Any other outcome has none.
func (c *Client) valueLen(kind BatchOpKind, res *wire.BatchOpResult) int {
	overhead := cryptox.Salsa20NonceSize // hardened: the MAC is the enclave's
	switch {
	case kind != BatchGet || res.Status != wire.StatusOK || res.Flags&wire.FlagNotFound != 0:
		return 0
	case res.Flags&wire.FlagInlineValue != 0:
		return len(res.InlineValue)
	case c.serverEnc:
		overhead = cryptox.SealOverhead
	case res.PayloadMAC == nil: // the MAC rides the payload
		overhead += wire.MACSize
	}
	return max(int(res.PayloadLen)-overhead, 0)
}

// opResult converts one sealed per-op result into the client-side
// outcome, decrypting get payloads (op idx of the frame with oid) under
// verify's cli_verify span. res and seg alias the client's scratch (opened
// control and poll buffer), so a get's value is copied or decrypted into
// dst, its window of the frame's value block, before returning.
func (c *Client) opResult(kind BatchOpKind, res *wire.BatchOpResult, seg, dst []byte, oid uint64, idx int, verify *obs.Op) BatchResult {
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
		if code := res.InlineValue; kind > BatchDelete && len(code) == 1 && int(code[0]) < len(repairErrs) {
			return BatchResult{Err: repairErrs[code[0]]}
		}
		return BatchResult{Err: fmt.Errorf("%w: server status %v", ErrBadResponse, res.Status)}
	}
	if res.Flags&wire.FlagNotFound != 0 {
		return BatchResult{Err: ErrNotFound}
	}
	switch kind {
	case BatchGet:
	case BatchPut, BatchDelete:
		return BatchResult{}
	default: // a repair op: its sealed result fields, then its chunk
		return BatchResult{Value: append(append([]byte(nil), res.InlineValue...), seg...)}
	}
	if res.Flags&wire.FlagInlineValue != 0 {
		return BatchResult{Value: append(dst, res.InlineValue...)}
	}
	t := verify.Now()
	value, err := c.openValue(dst, res.OpKey, res.PayloadMAC, seg, oid, idx)
	if err == nil {
		verify.Span(obs.CliVerify, t)
	}
	return BatchResult{Value: value, Err: err}
}
