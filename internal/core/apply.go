package core

// The apply path: the one place an authenticated operation touches the
// store. handleBatch decodes and verifies a frame, then hands each of its
// operations here and gets a by-value result back. Base and value-log placement differ at exactly three points —
// the durable append, the index swap's compare on sequence order, and
// the pool copy being a cache rather than the store — each a branch on
// s.vlog below. Server encryption (§5.1) re-seals the value before a put
// places it and before a get replies it: a branch on s.storage each.

import (
	"bytes"
	"math"
	"unsafe"

	"precursor/internal/cryptox"
	"precursor/internal/heat"
	"precursor/internal/obs"
	"precursor/internal/wire"
)

// apply runs one authenticated operation (Algorithm 2, line 7, and the
// get/delete analogues).
//
// o is the op view: opcode, flags, key, K_operation and inline value,
// all from inside the opened control seal. seg is the op's extent of
// untrusted memory — nonce‖ciphertext‖MAC for an external put, empty
// otherwise — borrowed from the poll buffer for the call, at frame index idx.
//
// The result travels by value. For a found get it carries the key material
// (aliasing the session's copy of the entry, sess.got[idx]) and payload
// aliases the stored bytes in the pool or in session memory — the
// read-through's record buffer, or the re-sealed value under server
// encryption; the caller copies both into its reply before it handles the
// next operation.
//
// op is the trace of a frame of one, nil for the ops of a larger frame
// (it records one srv_batch span instead): a failure's cause annotates
// it, and end is where its srv_apply span — srv_vlog_read after a
// read-through — stopped.
func (s *Server) apply(sess *session, o *wire.BatchOp, seg []byte, idx int, op *obs.Op, now int64) (res wire.BatchOpResult, payload []byte, end int64) {
	switch o.Op {
	case wire.OpPut:
		res = s.applyPut(sess, o, seg, idx, op)
		end = op.SpanEnd(obs.SrvApply, now)
	case wire.OpGet:
		res, payload, end = s.applyGet(sess, o, idx, op, now)
	case wire.OpDelete:
		res = s.applyDelete(sess, o, op)
		end = op.SpanEnd(obs.SrvApply, now)
	default:
		// A repair op (repair.go) moves sealed state, not a key's value.
		res, payload = s.applyRepair(sess, o, seg, op)
		return res, payload, op.SpanEnd(obs.SrvApply, now)
	}
	if s.cfg.Heat != nil {
		// Accounted here — the control seal opened, so the key is
		// authentic — for every op kind at once, and recorded once the
		// frame's reply is written (handleBatch). Only the key's hash enters
		// the sketch.
		sess.heat = append(sess.heat, heatOp{heatKind(o.Op), heat.HashKey(o.Key),
			len(seg) + len(o.InlineValue), len(payload) + len(res.InlineValue)})
	}
	return res, payload, end
}

// failed is the result of an operation that did not complete: only the
// status crosses back to the client, the cause stays in the trace.
func failed(op *obs.Op, status wire.Status, cause error) wire.BatchOpResult {
	op.SetError(cause)
	return wire.BatchOpResult{Status: status}
}

func (s *Server) applyPut(sess *session, o *wire.BatchOp, seg []byte, idx int, op *obs.Op) wire.BatchOpResult {
	s.puts.Add(1)
	inline := o.Flags&wire.FlagInlineValue != 0
	e := entry{baseEntry: baseEntry{owner: sess.id}}
	var stored []byte
	if inline {
		// §5.2 optimization: the small value lives inside the enclave; a
		// log record carries it in the sealed metadata, payload empty. The
		// placement is the server's, bounded so the EPC stays small.
		if !s.cfg.InlineSmallValues || len(o.InlineValue) >= DefaultInlineMax {
			s.badRequests.Add(1)
			return failed(op, wire.StatusBadRequest, ErrBadResponse)
		}
		if err := s.placeInline(&e, o.InlineValue); err != nil {
			return failed(op, wire.StatusServerError, err)
		}
	} else {
		if s.storage == nil && len(o.OpKey) != wire.OpKeySize || len(seg) <= wire.MACSize {
			s.badRequests.Add(1)
			return failed(op, wire.StatusBadRequest, ErrBadResponse)
		}
		copy(e.opKey[:], o.OpKey)
		// seg is already ciphertext‖MAC, the base-mode stored form: it goes
		// to the pool and to the log verbatim, never through a staging copy.
		stored = seg
		if s.storage != nil {
			// The entry trusts the re-sealed blob's version only: its nonce.
			var err error
			if stored, err = s.recrypt(sess, sess.aead, sess.payAD.of(sess.id, sess.lastOid, idx), seg, s.storage, o.Key); err != nil {
				s.authFailure(sess, "payload")
				return failed(op, wire.StatusAuthFailed, ErrAuth)
			}
			copy(e.opKey[:], stored[:cryptox.GCMNonceSize])
		}
		if s.cfg.HardenedMACs {
			// §3.9 hardening: the MAC is enclave state — in the entry and
			// the log's sealed metadata, never in untrusted memory or the
			// record body.
			stored = seg[:len(seg)-wire.MACSize]
			copy(e.mac[:], seg[len(stored):])
			e.hasMAC = true
		}
		// store_to_untrusted (Algorithm 2, line 7): the ciphertext goes to
		// the pre-allocated pool in untrusted memory.
		if err := s.placeStored(&e, stored); err != nil {
			return failed(op, wire.StatusServerError, err)
		}
	}

	key := keyView(o.Key)
	if s.vlog != nil {
		// store_to_untrusted, durable edition: the append blocks until the
		// group commit has fsynced, so the ack implies the value survives
		// kill -9.
		if err := s.vlogPut(o.Key, &e, stored); err != nil {
			s.freeEntryResources(&e)
			return failed(op, wire.StatusServerError, err)
		}
	}
	// With a value log the index swap is conditional on sequence order, so a
	// relocation or a concurrent put can never roll a key backwards.
	var old entry
	if s.table.Upsert(key, func(cur entry, exists bool) (entry, bool) {
		if exists && s.vlog != nil && cur.seq >= e.seq {
			return cur, false
		}
		old = cur
		return e, true
	}) {
		s.releaseEntry(&old)
	} else {
		// A concurrent newer put landed between our append and the swap:
		// this record is dead on arrival.
		s.freeEntryResources(&e)
		s.vlog.MarkDead(e.vptr)
	}
	s.vlogTrack.applied(e.seq)
	s.recordDelta(key)
	return wire.BatchOpResult{Status: wire.StatusOK}
}

func (s *Server) applyGet(sess *session, o *wire.BatchOp, idx int, op *obs.Op, now int64) (wire.BatchOpResult, []byte, int64) {
	s.gets.Add(1)
	e, ok := &sess.got[idx], false
	if *e, ok = s.table.Get(keyView(o.Key)); !ok || s.isDenied(sess, e) {
		// Access control: pretend absence rather than leak existence.
		return wire.BatchOpResult{Status: wire.StatusNotFound, Flags: wire.FlagNotFound},
			nil, op.SpanEnd(obs.SrvApply, now)
	}
	res := wire.BatchOpResult{Status: wire.StatusOK}
	var payload []byte
	stage := obs.SrvApply
	switch {
	case e.inline != nil:
		res.Flags = wire.FlagInlineValue
		res.InlineValue = e.inline.Data
		e.inline.Touch(0, len(e.inline.Data))
	case s.vlog != nil && !e.ref.Valid() && e.vptr.Valid():
		// The value has no memory-resident copy: read it back from the
		// value log and re-authenticate its sealed metadata.
		now, stage = op.SpanEnd(obs.SrvApply, now), obs.SrvVlogRead
		val, inline, err := s.vlogReadThrough(sess, o.Key, e)
		if err != nil {
			return failed(op, wire.StatusServerError, err), nil, now
		}
		if inline {
			res.Flags = wire.FlagInlineValue
			res.InlineValue = val
		} else {
			payload = val
		}
	default:
		// The encrypted payload is transferred as-is — the server performs
		// no payload cryptography (§3.2).
		var err error
		if payload, err = s.pool.Read(e.ref); err != nil {
			return failed(op, wire.StatusServerError, err), nil, now
		}
		if s.storage != nil {
			if !bytes.HasPrefix(payload, e.opKey[:cryptox.GCMNonceSize]) {
				payload = nil // not the version the entry trusts: it fails to open
			}
			if payload, err = s.recrypt(sess, s.storage, o.Key, payload, sess.aead, sess.payAD.of(sess.id, sess.lastOid, idx)); err != nil {
				s.authFailure(sess, "stored value")
				return failed(op, wire.StatusServerError, ErrIntegrity), nil, now
			}
		}
	}
	if res.Flags&wire.FlagInlineValue == 0 && s.storage == nil {
		res.OpKey = e.opKey[:]
		if e.hasMAC {
			res.PayloadMAC = e.mac[:]
		}
	}
	return res, payload, op.SpanEnd(stage, now)
}

func (s *Server) applyDelete(sess *session, o *wire.BatchOp, op *obs.Op) wire.BatchOpResult {
	s.deletes.Add(1)
	key := keyView(o.Key)
	notFound := wire.BatchOpResult{Status: wire.StatusNotFound, Flags: wire.FlagNotFound}
	seq := uint64(math.MaxUint64) // without a value log no version outranks a delete
	if s.vlog != nil {
		// Deletes must be durable before they are acked: append a
		// tombstone for a key this session may delete, then remove the
		// entry only if no newer version raced in.
		if e, ok := s.table.Get(key); !ok || s.isDenied(sess, &e) {
			return notFound
		}
		_, d, err := s.vlogAppend(o.Key, &vlogMeta{flags: vlogMetaTombstone, owner: sess.id}, nil, 0)
		if err != nil {
			return failed(op, wire.StatusServerError, err)
		}
		seq = d
	}
	// The entry is judged and released as the table holds it, under its
	// lock: a copy read before may be one a concurrent put has replaced
	// (and released) since, and may have had another owner.
	denied := false
	removed := s.deleteIf(key, func(e entry) bool {
		denied = e.seq < seq && s.isDenied(sess, &e)
		return e.seq < seq && !denied
	})
	if s.vlog != nil {
		s.vlogTrack.applied(seq)
	}
	if !removed && (denied || s.vlog == nil) {
		// With a value log a tombstone that removed nothing else was
		// outrun by a newer put, or by another delete: acked all the same.
		return notFound
	}
	s.recordDelta(key)
	return wire.BatchOpResult{Status: wire.StatusOK}
}

// keyView is key bytes seen as a string without a copy, valid only while
// those bytes are: the table and the delta set clone a key they keep.
func keyView(key []byte) string { return unsafe.String(unsafe.SliceData(key), len(key)) }

func (s *Server) isDenied(sess *session, e *entry) bool {
	return s.ownerOnly.Load() && e.owner != sess.id
}

// placeInline gives e an enclave-resident copy of a small value.
func (s *Server) placeInline(e *entry, value []byte) error {
	region, err := s.enclave.Alloc(len(value))
	if err != nil {
		return err
	}
	copy(region.Data, value)
	e.inline = region
	return nil
}

// placeStored copies stored — a value's ciphertext, followed by its MAC
// unless the MAC is enclave state — into a fresh untrusted pool slot for
// e (none for the empty payload of an index-only snapshot entry or an
// inline record). Without the value log the slot is the store. With it
// the slot is only a cache of the durable record: policy may skip it, and
// failing to build it is not an error.
func (s *Server) placeStored(e *entry, stored []byte) error {
	if len(stored) == 0 || s.vlog != nil && !s.vlogMayCache(len(stored)) {
		return nil
	}
	ref, err := s.pool.Alloc(len(stored))
	if err == nil {
		if err = s.pool.Write(ref, stored); err == nil {
			e.ref = ref
			return nil
		}
		s.pool.Free(ref)
	}
	if s.vlog != nil {
		return nil
	}
	return err
}

// deleteIf removes key's entry if cond approves of it, and releases the
// entry it removed: cond judges, under the table lock, the entry the
// removal takes.
func (s *Server) deleteIf(key string, cond func(e entry) bool) bool {
	var old entry
	if !s.table.DeleteIf(key, func(b baseEntry, rec uint32) bool {
		old = s.table.load(b, rec)
		return cond(old)
	}) {
		return false
	}
	s.releaseEntry(&old)
	return true
}

// releaseEntry frees an entry the index no longer holds, and marks its log
// record reclaimable; the zero entry has nothing to free.
func (s *Server) releaseEntry(e *entry) {
	s.freeEntryResources(e)
	if s.vlog != nil && e.vptr.Valid() {
		s.vlog.MarkDead(e.vptr)
	}
}

// freeEntryResources returns an entry's memory-resident copy, leaving
// value-log accounting alone: enough for an entry that never made it
// into the index. The entry is not modified — a get works on its own copy.
func (s *Server) freeEntryResources(e *entry) {
	if e.inline != nil {
		s.enclave.Free(e.inline)
	}
	if e.ref.Valid() {
		s.pool.Free(e.ref)
	}
}
