package core

// Server-side multi-op batching: one OpBatch frame carries N operations
// under a single control seal and a single replay check, applied as a
// unit by the owning trusted thread with per-op result codes sealed
// into one BatchReply. The per-session scratch state lives on the
// session struct and is safe without locks for the same reason lastOid
// is: a session's ring is polled by exactly one trusted thread.

import (
	"time"

	"precursor/internal/cryptox"
	"precursor/internal/obs"
	"precursor/internal/overload"
	"precursor/internal/wire"
)

// handleBatch implements the batch analogue of Algorithm 2: open the
// one sealed control blob, verify the batch as a unit (count
// cross-check, authenticated payload extents, one replay check for the
// whole frame), apply the ops in order, and seal every per-op outcome
// into a single reply.
func (s *Server) handleBatch(sess *session, msg []byte, op *obs.Op, now int64) {
	op.SetKind("batch")
	// Admission is decided before any decode or AEAD work, but a
	// refused batch still opens and burns its oid below so the shed is
	// guaranteed "not applied" — the batch is the replay unit, so the
	// whole frame sheds as a unit (every per-op result RETRY_LATER).
	admitted, hint := s.gate.Admit(overload.KindBatch, len(s.out))
	if admitted {
		start := time.Now()
		defer func() { s.gate.Done(time.Since(start)) }()
	}
	if err := wire.DecodeBatchRequest(msg, &sess.breq); err != nil {
		s.badRequests.Add(1)
		op.SetError(err)
		s.reply(sess, wire.StatusBadRequest, nil, nil, op, now)
		return
	}
	now = op.SpanEnd(obs.SrvDecode, now)
	if !s.openControl(sess, sess.breq.SealedControl, op, now) {
		return
	}
	if err := wire.DecodeBatchControl(sess.ctlPt, &sess.bctl); err != nil {
		s.badRequests.Add(1)
		op.SetError(err)
		s.reply(sess, wire.StatusBadRequest, nil, nil, op, now)
		return
	}
	ctl := &sess.bctl
	op.SetOid(ctl.Oid)
	s.adoptTraceOnly(ctl.Trace, ctl.TraceBad, op)

	if s.replayed(sess, ctl.Oid, op) {
		sess.startReply(ctl.Oid, wire.FlagReplay, 0, wire.BatchOpResult{})
		now = op.SpanEnd(obs.SrvVerify, now)
		s.replyBatch(sess, wire.StatusReplay, nil, op, now)
		return
	}
	sess.lastOid = ctl.Oid
	// Unit verification: the untrusted header's op count must match the
	// sealed control's, and the sealed per-op extents must tile the
	// untrusted payload region exactly (no forged lengths, no overlap).
	// An authenticated batch that fails is rejected permanently — the
	// oid is consumed so a "fixed" redelivery of the same frame cannot
	// apply ops the client already resolved as failed.
	if len(ctl.Ops) != sess.breq.Count || ctl.ValidateExtents(len(sess.breq.Payload)) != nil {
		s.badRequests.Add(1)
		sess.startReply(ctl.Oid, 0, len(ctl.Ops), wire.BatchOpResult{Status: wire.StatusBadRequest})
		now = op.SpanEnd(obs.SrvVerify, now)
		op.SetError(ErrBadResponse)
		s.replyBatch(sess, wire.StatusBadRequest, nil, op, now)
		return
	}
	now = op.SpanEnd(obs.SrvVerify, now)

	if !admitted {
		s.shed("batch", op)
		sess.startReply(ctl.Oid, wire.FlagRetryLater, len(ctl.Ops), wire.BatchOpResult{
			Status: wire.StatusRetryLater, Flags: wire.FlagRetryLater, InlineValue: hintBytes(hint)})
		s.replyBatch(sess, wire.StatusRetryLater, nil, op, now)
		return
	}

	s.batches.Add(1)
	s.batchedOps.Add(uint64(len(ctl.Ops)))
	s.cfg.Heat.RecordBatch(len(ctl.Ops))
	sess.startReply(ctl.Oid, 0, 0, wire.BatchOpResult{})
	sess.bPayload = sess.bPayload[:0]
	off := 0
	for i := range ctl.Ops {
		// A batched op is already the apply path's op view; its extent of
		// the payload region is authenticated by the sealed PayloadLen. A
		// found value's bytes join the reply's payload region, claimed by
		// the result's own sealed extent.
		bop := &ctl.Ops[i]
		seg := sess.breq.Payload[off : off+int(bop.PayloadLen)]
		off += int(bop.PayloadLen)
		res, payload, _ := s.apply(sess, bop, seg, i, nil, 0)
		res.PayloadLen = uint32(len(payload))
		sess.bPayload = append(sess.bPayload, payload...)
		sess.brep.Results = append(sess.brep.Results, res)
	}
	now = op.SpanEnd(obs.SrvBatch, now)
	s.replyBatch(sess, wire.StatusOK, sess.bPayload, op, now)
}

// startReply resets the session's batch reply scratch for oid, with n
// results preset to fill (a frame refused as a unit) or none (results
// are appended as ops apply).
func (sess *session) startReply(oid uint64, flags uint8, n int, fill wire.BatchOpResult) {
	sess.brep.Oid = oid
	sess.brep.Flags = flags
	sess.brep.Results = sess.brep.Results[:0]
	for ; n > 0; n-- {
		sess.brep.Results = append(sess.brep.Results, fill)
	}
}

// replyBatch seals sess.brep and enqueues the response for the sender
// pool. If the assembled reply would not fit the client's response
// ring slot, get payloads are stripped — those gets report
// StatusServerError (retryable) while write results, whose effects are
// already applied, are preserved. Takes ownership of op like reply.
func (s *Server) replyBatch(sess *session, status wire.Status, payload []byte, op *obs.Op, now int64) {
	var err error
	sess.repPt, err = wire.AppendBatchReply(sess.repPt[:0], &sess.brep)
	if err != nil {
		op.SetError(err)
		op.Finish()
		return
	}
	// (&wire.Response{}).EncodedLen() is the outer header's size.
	if (&wire.Response{}).EncodedLen()+cryptox.SealOverhead+len(sess.repPt)+len(payload) >
		sess.respWriter.MaxMessage() {
		for i := range sess.brep.Results {
			res := &sess.brep.Results[i]
			if res.Status == wire.StatusOK &&
				(res.PayloadLen > 0 || len(res.InlineValue) > 0) {
				*res = wire.BatchOpResult{Status: wire.StatusServerError}
			}
		}
		payload = nil
		sess.repPt, err = wire.AppendBatchReply(sess.repPt[:0], &sess.brep)
		if err != nil {
			op.SetError(err)
			op.Finish()
			return
		}
	}
	// Batch replies always seal under the base AD (see adoptTraceOnly).
	s.sendReply(sess, status, sess.repPt, sess.ad[:], payload, op, now)
}
