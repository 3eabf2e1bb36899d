package core

// Server-side multi-op batching: one OpBatch frame carries N operations
// under a single control seal and a single replay check, applied as a
// unit by the owning trusted thread with per-op result codes sealed
// into one BatchReply. The per-session scratch state lives on the
// session struct and is safe without locks for the same reason lastOid
// is: a session's ring is polled by exactly one trusted thread.

import (
	"fmt"
	"log/slog"
	"time"

	"precursor/internal/audit"
	"precursor/internal/cryptox"
	"precursor/internal/heat"
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
	// As in the single-op path, only the sealed control segment crosses
	// into the enclave; the payload region stays in untrusted memory.
	s.cryptoBytes.Add(uint64(len(sess.breq.SealedControl)))
	pt, err := sess.aead.OpenAppend(sess.ctlPt[:0], sess.breq.SealedControl, sess.ad[:])
	if err != nil {
		s.authFailures.Add(1)
		s.logEvent("batch control failed authentication", slog.Int("client", int(sess.id)))
		s.cfg.Audit.Add(audit.Record{Kind: audit.KindAuthFail, Client: sess.id,
			Detail: "batch control failed authentication"})
		op.SetError(ErrAuth)
		s.reply(sess, wire.StatusAuthFailed, nil, nil, op, now)
		return
	}
	sess.ctlPt = pt
	if err := wire.DecodeBatchControl(pt, &sess.bctl); err != nil {
		s.badRequests.Add(1)
		op.SetError(err)
		s.reply(sess, wire.StatusBadRequest, nil, nil, op, now)
		return
	}
	ctl := &sess.bctl
	op.SetOid(ctl.Oid)
	s.adoptTraceOnly(ctl.Trace, ctl.TraceBad, op)

	// One replay check covers the whole batch — the batch is the replay
	// unit (one oid per frame).
	if ctl.Oid <= sess.lastOid {
		s.replays.Add(1)
		s.logEvent("batch replay detected", slog.Int("client", int(sess.id)),
			slog.Uint64("oid", ctl.Oid), slog.Uint64("lastOid", sess.lastOid))
		s.cfg.Audit.Add(audit.Record{Kind: audit.KindReplay, Client: sess.id, Oid: ctl.Oid,
			Detail: fmt.Sprintf("batch oid %d not above last %d", ctl.Oid, sess.lastOid)})
		sess.brep.Oid = ctl.Oid
		sess.brep.Flags = wire.FlagReplay
		sess.brep.Results = sess.brep.Results[:0]
		now = op.SpanEnd(obs.SrvVerify, now)
		op.SetError(ErrReplay)
		s.replyBatch(sess, wire.StatusReplay, nil, op, now)
		return
	}
	// Unit verification: the untrusted header's op count must match the
	// sealed control's, and the sealed per-op extents must tile the
	// untrusted payload region exactly (no forged lengths, no overlap).
	// An authenticated batch that fails is rejected permanently — the
	// oid is consumed so a "fixed" redelivery of the same frame cannot
	// apply ops the client already resolved as failed.
	if len(ctl.Ops) != sess.breq.Count || ctl.ValidateExtents(len(sess.breq.Payload)) != nil {
		s.badRequests.Add(1)
		sess.lastOid = ctl.Oid
		sess.brep.Oid = ctl.Oid
		sess.brep.Flags = 0
		sess.brep.Results = sess.brep.Results[:0]
		for range ctl.Ops {
			sess.brep.Results = append(sess.brep.Results,
				wire.BatchOpResult{Status: wire.StatusBadRequest})
		}
		now = op.SpanEnd(obs.SrvVerify, now)
		op.SetError(ErrBadResponse)
		s.replyBatch(sess, wire.StatusBadRequest, nil, op, now)
		return
	}
	sess.lastOid = ctl.Oid
	now = op.SpanEnd(obs.SrvVerify, now)

	if !admitted {
		if tr := s.cfg.Tracer; tr != nil {
			tr.NoteFault("shed batch (overload)")
		}
		h := hintBytes(hint)
		sess.brep.Oid = ctl.Oid
		sess.brep.Flags = wire.FlagRetryLater
		sess.brep.Results = sess.brep.Results[:0]
		for range ctl.Ops {
			sess.brep.Results = append(sess.brep.Results,
				wire.BatchOpResult{Status: wire.StatusRetryLater, Flags: wire.FlagRetryLater, InlineValue: h})
		}
		op.SetError(ErrRetryLater)
		s.replyBatch(sess, wire.StatusRetryLater, nil, op, now)
		return
	}

	s.batches.Add(1)
	s.batchedOps.Add(uint64(len(ctl.Ops)))
	s.cfg.Heat.RecordBatch(len(ctl.Ops))
	sess.brep.Oid = ctl.Oid
	sess.brep.Flags = 0
	sess.brep.Results = sess.brep.Results[:0]
	sess.bPayload = sess.bPayload[:0]
	off := 0
	for i := range ctl.Ops {
		bop := &ctl.Ops[i]
		seg := sess.breq.Payload[off : off+int(bop.PayloadLen)]
		off += int(bop.PayloadLen)
		if s.cfg.Heat != nil {
			// Batched ops heat-account like single ops: authentic key
			// hash, request bytes in; replyBatch adds the response size.
			s.cfg.Heat.Record(heatKind(bop.Op), heat.HashKeyBytes(bop.Key),
				len(seg)+len(bop.InlineValue), 0)
		}
		var res wire.BatchOpResult
		switch bop.Op {
		case wire.OpPut:
			res = s.applyBatchPut(sess, bop, seg)
		case wire.OpGet:
			res = s.applyBatchGet(sess, bop)
		case wire.OpDelete:
			res = s.applyBatchDelete(sess, bop)
		}
		sess.brep.Results = append(sess.brep.Results, res)
	}
	now = op.SpanEnd(obs.SrvBatch, now)
	s.replyBatch(sess, wire.StatusOK, sess.bPayload, op, now)
}

// applyBatchPut applies one put from a batch. seg is the op's
// authenticated extent of the untrusted payload region: ciphertext
// followed by its MAC (empty for inline puts). It mirrors handlePut /
// handlePutVlog, returning the per-op result instead of replying.
func (s *Server) applyBatchPut(sess *session, bop *wire.BatchOp, seg []byte) wire.BatchOpResult {
	if s.vlog != nil {
		return s.applyBatchPutVlog(sess, bop, seg)
	}
	s.puts.Add(1)
	e := &entry{owner: sess.id}

	if bop.Flags&wire.FlagInlineValue != 0 {
		region, err := s.enclave.Alloc(len(bop.InlineValue))
		if err != nil {
			return wire.BatchOpResult{Status: wire.StatusServerError}
		}
		copy(region.Data, bop.InlineValue)
		e.inline = region
	} else {
		if len(bop.OpKey) != wire.OpKeySize || len(seg) < wire.MACSize+1 {
			s.badRequests.Add(1)
			return wire.BatchOpResult{Status: wire.StatusBadRequest}
		}
		copy(e.opKey[:], bop.OpKey)
		payload := seg[:len(seg)-wire.MACSize]
		mac := seg[len(seg)-wire.MACSize:]
		stored := len(payload)
		if !s.cfg.HardenedMACs {
			stored += wire.MACSize
		}
		ref, err := s.pool.Alloc(stored)
		if err != nil {
			return wire.BatchOpResult{Status: wire.StatusServerError}
		}
		slot, err := s.pool.Read(ref)
		if err != nil {
			return wire.BatchOpResult{Status: wire.StatusServerError}
		}
		copy(slot, payload)
		if s.cfg.HardenedMACs {
			copy(e.mac[:], mac)
			e.hasMAC = true
		} else {
			copy(slot[len(payload):], mac)
		}
		e.ref = ref
	}

	key := string(bop.Key)
	old, existed := s.table.Swap(key, e)
	if existed {
		s.releaseEntry(old)
	}
	s.recordDelta(key)
	return wire.BatchOpResult{Status: wire.StatusOK}
}

// applyBatchPutVlog is applyBatchPut's durable-tier variant, mirroring
// handlePutVlog: the append blocks until the group commit has fsynced,
// so a StatusOK result implies the value survives kill -9.
func (s *Server) applyBatchPutVlog(sess *session, bop *wire.BatchOp, seg []byte) wire.BatchOpResult {
	s.puts.Add(1)
	e := &entry{owner: sess.id}
	var logPayload, inlineVal []byte

	if bop.Flags&wire.FlagInlineValue != 0 {
		region, err := s.enclave.Alloc(len(bop.InlineValue))
		if err != nil {
			return wire.BatchOpResult{Status: wire.StatusServerError}
		}
		copy(region.Data, bop.InlineValue)
		e.inline = region
		inlineVal = bop.InlineValue
	} else {
		if len(bop.OpKey) != wire.OpKeySize || len(seg) < wire.MACSize+1 {
			s.badRequests.Add(1)
			return wire.BatchOpResult{Status: wire.StatusBadRequest}
		}
		copy(e.opKey[:], bop.OpKey)
		payload := seg[:len(seg)-wire.MACSize]
		mac := seg[len(seg)-wire.MACSize:]
		if s.cfg.HardenedMACs {
			copy(e.mac[:], mac)
			e.hasMAC = true
			logPayload = payload
		} else {
			// The segment is already ciphertext‖MAC — exactly the base-mode
			// record body.
			logPayload = seg
		}
		if s.vlogMayCache(len(logPayload)) {
			if ref, err := s.pool.Alloc(len(logPayload)); err == nil {
				if slot, rerr := s.pool.Read(ref); rerr == nil {
					copy(slot, logPayload)
					e.ref = ref
				} else {
					s.pool.Free(ref)
				}
			}
		}
	}

	key := string(bop.Key)
	if err := s.vlogPut(key, e, logPayload, inlineVal); err != nil {
		s.freeEntryResources(e)
		return wire.BatchOpResult{Status: wire.StatusServerError}
	}
	var old *entry
	applied := s.table.Upsert(key, func(cur *entry, exists bool) (*entry, bool) {
		if exists {
			if cur.seq >= e.seq {
				return cur, false
			}
			old = cur
		}
		return e, true
	})
	if applied {
		s.releaseEntry(old)
	} else {
		s.freeEntryResources(e)
		s.vlog.MarkDead(e.vptr)
	}
	s.vlogTrack.applied(e.seq)
	s.recordDelta(key)
	return wire.BatchOpResult{Status: wire.StatusOK}
}

// applyBatchGet applies one get from a batch, mirroring handleGet. A
// found value's bytes are appended to the session's reply payload
// region and claimed via the result's authenticated PayloadLen extent
// (or carried inline in the sealed reply for enclave-resident values).
func (s *Server) applyBatchGet(sess *session, bop *wire.BatchOp) wire.BatchOpResult {
	s.gets.Add(1)
	e, ok := s.table.GetBytes(bop.Key)
	if ok && s.isDenied(sess, e) {
		ok = false
	}
	if !ok {
		return wire.BatchOpResult{Status: wire.StatusNotFound, Flags: wire.FlagNotFound}
	}
	res := wire.BatchOpResult{Status: wire.StatusOK}
	switch {
	case e.inline != nil:
		res.Flags = wire.FlagInlineValue
		res.InlineValue = e.inline.Data
		e.inline.Touch(0, len(e.inline.Data))
	case s.vlog != nil && !e.ref.Valid() && e.vptr.Valid():
		val, inline, cur, err := s.vlogReadThrough(string(bop.Key), e)
		if err != nil {
			return wire.BatchOpResult{Status: wire.StatusServerError}
		}
		e = cur
		if inline {
			res.Flags = wire.FlagInlineValue
			res.InlineValue = val
		} else {
			res.OpKey = e.opKey[:]
			res.PayloadLen = uint32(len(val))
			sess.bPayload = append(sess.bPayload, val...)
			if e.hasMAC {
				res.PayloadMAC = e.mac[:]
			}
		}
	default:
		stored, err := s.pool.Read(e.ref)
		if err != nil {
			return wire.BatchOpResult{Status: wire.StatusServerError}
		}
		res.OpKey = e.opKey[:]
		res.PayloadLen = uint32(len(stored))
		sess.bPayload = append(sess.bPayload, stored...)
		if e.hasMAC {
			res.PayloadMAC = e.mac[:]
		}
	}
	return res
}

// applyBatchDelete applies one delete from a batch, mirroring
// handleDelete (including the durable-tombstone path).
func (s *Server) applyBatchDelete(sess *session, bop *wire.BatchOp) wire.BatchOpResult {
	s.deletes.Add(1)
	e, ok := s.table.GetBytes(bop.Key)
	if ok && s.isDenied(sess, e) {
		ok = false
	}
	if !ok {
		return wire.BatchOpResult{Status: wire.StatusNotFound, Flags: wire.FlagNotFound}
	}
	key := string(bop.Key)
	if s.vlog != nil {
		d, err := s.vlogDelete(key, sess.id)
		if err != nil {
			return wire.BatchOpResult{Status: wire.StatusServerError}
		}
		var old *entry
		if s.table.DeleteIf(key, func(cur *entry) bool {
			if cur.seq >= d {
				return false
			}
			old = cur
			return true
		}) {
			s.releaseEntry(old)
		}
		s.vlogTrack.applied(d)
		s.recordDelta(key)
		return wire.BatchOpResult{Status: wire.StatusOK}
	}
	s.table.Delete(key)
	s.releaseEntry(e)
	s.recordDelta(key)
	return wire.BatchOpResult{Status: wire.StatusOK}
}

// replyBatch seals sess.brep and enqueues the response for the sender
// pool. If the assembled reply would not fit the client's response
// ring slot, get payloads are stripped — those gets report
// StatusServerError (retryable) while write results, whose effects are
// already applied, are preserved. Takes ownership of op like reply.
func (s *Server) replyBatch(sess *session, status wire.Status, payload []byte, op *obs.Op, now int64) {
	s.cfg.Heat.AddBytesOut(len(payload))
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
