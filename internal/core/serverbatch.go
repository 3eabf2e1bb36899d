package core

// The server's one frame kind: every request is a wire.OpBatch frame —
// a single op is a frame of one — carrying its ops under a single control
// seal and a single replay check, applied as a unit by the owning trusted
// thread with per-op result codes sealed into one BatchReply. The
// per-session scratch state lives on the session struct and is safe
// without locks for the same reason lastOid is: a session's ring is polled
// by exactly one trusted thread.

import (
	"slices"
	"time"

	"precursor/internal/cryptox"
	"precursor/internal/obs"
	"precursor/internal/overload"
	"precursor/internal/wire"
)

// handleBatch implements Algorithm 2 and its get/delete analogues for one
// frame: decode, open the one sealed control blob, verify the frame as a
// unit (one replay check, count cross-check, authenticated payload
// extents), admit, apply the ops in order, and seal every per-op outcome
// into a single reply. A frame that fails to decode — one of another
// opcode included — or to authenticate gets an unauthenticated status
// frame and burns no oid; every later outcome is sealed, an op the enclave
// refuses included. op (nil when tracing is off) passes to the reply,
// which owns its finish. now is the srv_pickup span's end (0 when op is
// nil); each stage's end becomes the next stage's start so the chain costs
// one clock read per boundary.
func (s *Server) handleBatch(sess *session, msg []byte, op *obs.Op, now int64) {
	if err := wire.DecodeBatchRequest(msg, &sess.breq); err != nil {
		s.badRequests.Add(1)
		op.SetError(err)
		s.reply(sess, wire.StatusBadRequest, op, now)
		return
	}
	now = op.SpanEnd(obs.SrvDecode, now)
	if !s.openControl(sess, sess.breq.SealedControl, op, now) {
		return
	}
	if err := wire.DecodeBatchControl(sess.ctlPt, &sess.bctl); err != nil {
		s.badRequests.Add(1)
		op.SetError(err)
		s.reply(sess, wire.StatusBadRequest, op, now)
		return
	}
	ctl := &sess.bctl
	op.SetKind(frameKind(len(ctl.Ops), ctl.Ops[0].Op))
	op.SetOid(ctl.Oid)
	s.adoptTrace(ctl.Trace, ctl.TraceBad, op)

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
	// An authenticated frame that fails is rejected permanently — the
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

	// Admission control, decided once the control is open: a frame of gets
	// only is a read, which sheds first; any other frame is a write. The
	// reply-queue depth is the pressure signal (backlog × service-time EWMA
	// estimates queue delay). A refused frame has burned its oid above, so a
	// duplicate delivery can never apply after the client resolved it as
	// RETRY_LATER: the shed is guaranteed "not applied", which is what lets
	// writes retry without ErrUnconfirmed. The sealed oid echo attributes
	// the reply; every op's result is the shed.
	kind, what := overload.KindRead, "read"
	for i := range ctl.Ops {
		if ctl.Ops[i].Op != wire.OpGet {
			kind, what = overload.KindWrite, "write"
			break
		}
	}
	admitted, hint := s.gate.Admit(kind, len(s.out))
	if !admitted {
		s.shed(what, op)
		sess.startReply(ctl.Oid, wire.FlagRetryLater, len(ctl.Ops), wire.BatchOpResult{
			Status: wire.StatusRetryLater, Flags: wire.FlagRetryLater, InlineValue: hintBytes(hint)})
		s.replyBatch(sess, wire.StatusRetryLater, nil, op, now)
		return
	}
	start := time.Now()
	defer func() { s.gate.Done(time.Since(start)) }()

	// A frame of one's apply is its srv_apply span; a larger frame's apply
	// loop is one srv_batch span, and only such a frame counts as a batch.
	one, applyOp := len(ctl.Ops) == 1, op
	if !one {
		applyOp = nil
		s.batches.Add(1)
		s.batchedOps.Add(uint64(len(ctl.Ops)))
		s.cfg.Heat.RecordBatch(len(ctl.Ops))
	}
	sess.startReply(ctl.Oid, 0, 0, wire.BatchOpResult{})
	sess.bPayload = sess.bPayload[:0]
	sess.got = slices.Grow(sess.got[:0], len(ctl.Ops))[:len(ctl.Ops)]
	off := 0
	for i := range ctl.Ops {
		// A frame's op is already the apply path's op view; its extent of
		// the payload region is authenticated by the sealed PayloadLen. A
		// found value's bytes join the reply's payload region, claimed by
		// the result's own sealed extent.
		bop := &ctl.Ops[i]
		seg := sess.breq.Payload[off : off+int(bop.PayloadLen)]
		off += int(bop.PayloadLen)
		res, payload, end := s.apply(sess, bop, seg, i, applyOp, now)
		if one {
			now = end
		}
		res.PayloadLen = uint32(len(payload))
		sess.bPayload = append(sess.bPayload, payload...)
		sess.brep.Results = append(sess.brep.Results, res)
	}
	if !one {
		now = op.SpanEnd(obs.SrvBatch, now)
	}
	s.replyBatch(sess, wire.StatusOK, sess.bPayload, op, now)
	for _, h := range sess.heat {
		s.cfg.Heat.Record(h.kind, h.hash, h.in, h.out)
	}
	sess.heat = sess.heat[:0]
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

// replyBatch seals sess.brep and sends the response. If the assembled reply would not fit the client's response
// ring slot, get payloads are stripped — those gets report
// StatusServerError (retryable) while write results, whose effects are
// already applied, are preserved. Takes ownership of op like sendReply.
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
	s.sendReply(sess, status, sess.repPt, payload, op, now)
}
