package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"precursor/internal/audit"
	"precursor/internal/cryptox"
	"precursor/internal/obs"
	"precursor/internal/wire"
)

// Anti-entropy repair through the op path (PROTOCOL.md §10).
//
// Repair moves sealed state between the replicas of a group: fetch a
// sealed snapshot from a healthy donor, push it into a restarted replica,
// and list the keys the donor dirtied since that snapshot so only that
// delta is replayed through the data path. Each step is an op of the one
// batch frame on an ordinary attested session, applied by the session's
// trusted thread under its replay window, control seal and admission rule:
// a frame of repair ops is a write.
//
// Trust model: the sealed snapshot is opaque to the repairing client. It
// is AEAD-sealed under the replica group's shared sealing key (same
// platform, same enclave image) with the donor's trusted counter as AD, so
// the client ferries bytes it can neither read nor forge, and its chunks
// ride the untrusted payload region: a chunk flipped, dropped or reordered
// on the way fails that AEAD when the push commits, before the table is
// touched. Offsets, sizes, generations and the delta's keys travel in the
// sealed control and reply. Value plaintext never appears: delta replay
// re-reads each key through the MAC-verified Get and writes it under a
// fresh one-time key, like any other client write.
//
// A repair op rides a frame alone. It carries two little-endian u64
// arguments in its sealed InlineValue, and its result its fields there:
//
//	OpSnapshot(off, 0)     → gen, total; a chunk in the reply's payload region
//	OpRestore(off, total)  a chunk in the frame's payload region
//	                       → entries, trusted counter once the chunk completes total
//	OpDelta(gen, off)      → count, then one page of (u16 length ‖ key)
//
// off counts what already crossed: bytes of a snapshot, keys of a delta.
// off 0 starts over — seals now, begins a push, lists the delta — and any
// other off must equal what the session has sent or received. A delta is
// the keys dirtied since the session's own last snapshot (delta.go).

// repairState is a session's repair in progress: at most one snapshot
// being fetched, one being pushed and one delta being listed. The session's
// first repair op allocates it; each part is dropped once its last piece
// has crossed, the whole once no part is left, and all of it goes with the
// session. Accessed only by the owning trusted thread.
type repairState struct {
	snap      []byte // sealed snapshot pinned at off 0, until its last chunk is sent
	snapGen   uint64
	snapSent  int
	push      []byte // pushed snapshot received so far
	pushTotal uint64
	keys      []string // delta fixed at off 0, until its last page is sent
	keysGen   uint64
	keysSent  int
}

// controlOfOne and replyOfOne are what a chunk rides behind: the encoders'
// control of one repair op with its 16 bytes of arguments, and reply of one
// result with no fields.
var controlOfOne, replyOfOne = func() (int, int) {
	ctl, _ := wire.AppendBatchControl(nil, &wire.BatchControl{Ops: []wire.BatchOp{{Op: wire.OpRestore, InlineValue: make([]byte, 16)}}})
	rep, _ := wire.AppendBatchReply(nil, &wire.BatchReply{Results: []wire.BatchOpResult{{}}})
	return len(ctl), len(rep)
}()

// errRepairStep refuses a repair op whose arguments are malformed or
// disagree with what the session has sent or received: a sealed
// BAD_REQUEST.
var errRepairStep = errors.New("precursor: repair op out of step")

// repairErrs are the refusals a repair op's sealed result names by index
// in its one-byte InlineValue, each a typed error at the client; any other
// failure is a plain server error.
var repairErrs = [...]error{ErrSealGeneration, ErrDeltaTruncated, ErrSnapshotRollback, ErrSnapshotAuth, ErrSnapshotFormat}

// applyRepair runs one repair op for sess. seg is a pushed chunk, borrowed
// for the call; a fetched chunk comes back as payload, aliasing the pinned
// snapshot until the reply copies it. A refused op is one
// KindRepairAnomaly audit record.
func (s *Server) applyRepair(sess *session, o *wire.BatchOp, seg []byte, op *obs.Op) (wire.BatchOpResult, []byte) {
	if sess.repair == nil {
		sess.repair = new(repairState)
	}
	r := sess.repair
	fields, payload, err := s.repairStep(sess, r, o, seg)
	if r.snap == nil && r.push == nil && r.keys == nil {
		sess.repair = nil
	}
	if err == nil {
		return wire.BatchOpResult{Status: wire.StatusOK, InlineValue: fields}, payload
	}
	s.cfg.Audit.Add(audit.Record{Kind: audit.KindRepairAnomaly, Client: sess.id,
		Detail: fmt.Sprintf("repair %v: %v", o.Op, err)})
	res := failed(op, wire.StatusServerError, err)
	if errors.Is(err, errRepairStep) {
		s.badRequests.Add(1)
		res.Status = wire.StatusBadRequest
	}
	if i := slices.IndexFunc(repairErrs[:], func(e error) bool { return errors.Is(err, e) }); i >= 0 {
		res.InlineValue = []byte{byte(i)}
	}
	return res, nil
}

// repairStep applies o to r and returns the result's sealed fields and the
// reply's chunk.
func (s *Server) repairStep(sess *session, r *repairState, o *wire.BatchOp, seg []byte) (fields, payload []byte, err error) {
	// A chunk is sized to fill the reply alone, so a repair op rides a
	// frame alone.
	if len(o.InlineValue) != 16 || len(sess.bctl.Ops) != 1 {
		return nil, nil, errRepairStep
	}
	a, b := binary.LittleEndian.Uint64(o.InlineValue), binary.LittleEndian.Uint64(o.InlineValue[8:])
	// What the client's response slot holds beyond the reply's framing.
	room := sess.respWriter.MaxMessage() - (&wire.Response{}).EncodedLen() - cryptox.SealOverhead - replyOfOne
	switch o.Op {
	case wire.OpSnapshot:
		if a == 0 {
			// Donor snapshots always carry payloads: a joiner cannot resolve
			// pointers into this node's value log. Armed first, the session's
			// dirty-key set misses no write the snapshot misses.
			var buf bytes.Buffer
			r.snap, r.snapSent = nil, 0
			set := s.dirty.arm(sess)
			if err := s.seal(&buf, true); err != nil {
				s.dirty.drop(sess.id)
				return nil, nil, err
			}
			// The generation is the trusted counter the snapshot header carries.
			r.snap, r.snapGen = buf.Bytes(), binary.LittleEndian.Uint64(buf.Bytes()[len(snapshotMagic):])
			set.gen = r.snapGen
		}
		n := min(len(r.snap)-r.snapSent, room-16)
		if r.snap == nil || a != uint64(r.snapSent) || n <= 0 {
			return nil, nil, errRepairStep
		}
		fields = binary.LittleEndian.AppendUint64(nil, r.snapGen)
		fields = binary.LittleEndian.AppendUint64(fields, uint64(len(r.snap)))
		payload = r.snap[r.snapSent : r.snapSent+n]
		if r.snapSent += n; r.snapSent == len(r.snap) {
			r.snap = nil
		}
		return fields, payload, nil
	case wire.OpRestore:
		if a == 0 {
			r.push, r.pushTotal = r.push[:0], b
		}
		if a != uint64(len(r.push)) || b != r.pushTotal || b > maxSnapshot || a+uint64(len(seg)) > b {
			r.push, r.pushTotal = nil, 0
			return nil, nil, errRepairStep
		}
		if r.push = append(r.push, seg...); uint64(len(r.push)) < b {
			return nil, nil, nil
		}
		err := s.RestoreReplica(bytes.NewReader(r.push))
		r.push, r.pushTotal = nil, 0
		if err != nil {
			return nil, nil, err
		}
		fields = binary.LittleEndian.AppendUint64(nil, uint64(s.table.Len()))
		return binary.LittleEndian.AppendUint64(fields, s.RollbackCounter()), nil, nil
	case wire.OpDelta:
		if b == 0 {
			keys, err := s.dirty.take(sess.id, a)
			r.keys, r.keysGen, r.keysSent = keys, a, 0
			if err != nil {
				return nil, nil, err
			}
		}
		if r.keys == nil || a != r.keysGen || b != uint64(r.keysSent) {
			return nil, nil, errRepairStep
		}
		// A page fills the slot, and InlineValue's 16-bit length.
		budget, first := min(room, math.MaxUint16), r.keysSent
		fields = binary.LittleEndian.AppendUint64(nil, uint64(len(r.keys)))
		for ; r.keysSent < len(r.keys) && len(fields)+2+len(r.keys[r.keysSent]) <= budget; r.keysSent++ {
			fields = binary.LittleEndian.AppendUint16(fields, uint16(len(r.keys[r.keysSent])))
			fields = append(fields, r.keys[r.keysSent]...)
		}
		if r.keysSent == first && first < len(r.keys) {
			return nil, nil, fmt.Errorf("%w: a delta key does not fit the response slot", errRepairStep)
		}
		if r.keysSent == len(r.keys) {
			r.keys = nil
		}
		return fields, nil, nil
	}
	return nil, nil, errRepairStep
}

// FetchSnapshot has the server seal its state now and streams the sealed
// snapshot into w, a response slot's worth per op, returning the seal's
// generation. The bytes are opaque to the caller: sealed under the replica
// group's sealing key.
func (c *Client) FetchSnapshot(w io.Writer) (uint64, error) {
	var gen, total, off uint64
	for off == 0 || off < total {
		v, err := c.repairOp(wire.OpSnapshot, off, 0, nil)
		if err != nil {
			return 0, err
		}
		if len(v) <= 16 || off > 0 && (binary.LittleEndian.Uint64(v) != gen || binary.LittleEndian.Uint64(v[8:]) != total) {
			return 0, fmt.Errorf("%w: snapshot chunk at %d", ErrBadResponse, off)
		}
		gen, total = binary.LittleEndian.Uint64(v), binary.LittleEndian.Uint64(v[8:])
		if _, err := w.Write(v[16:]); err != nil {
			return 0, err
		}
		off += uint64(len(v) - 16)
	}
	return gen, nil
}

// PushSnapshot streams a sealed snapshot into the server, a request slot's
// worth per op; the chunk that completes it commits RestoreReplica, which
// fast-forwards the server's rollback counter to the snapshot's stamp. It
// returns the server's entry count after the restore.
func (c *Client) PushSnapshot(src io.Reader) (int, error) {
	data, err := io.ReadAll(src)
	if err != nil {
		return 0, err
	}
	// A slot holds the frame header, the sealed control of one restore op
	// with a trace context, and the chunk.
	room := max(c.reqWriter.MaxMessage()-(&wire.BatchRequest{}).EncodedLen()-cryptox.SealOverhead-
		controlOfOne-wire.TraceContextSize, 1)
	var v []byte
	for off := 0; ; {
		n := min(len(data)-off, room)
		if v, err = c.repairOp(wire.OpRestore, uint64(off), uint64(len(data)), data[off:off+n]); err != nil {
			return 0, err
		}
		if off += n; off == len(data) {
			break
		}
	}
	if len(v) != 16 {
		return 0, fmt.Errorf("%w: restore committed without an entry count", ErrBadResponse)
	}
	return int(binary.LittleEndian.Uint64(v)), nil
}

// DeltaSince lists, a page per op, the keys the server dirtied since this
// session's last FetchSnapshot, of generation gen, and ends that delta.
// ErrSealGeneration means gen is not that snapshot's — fetch a fresh one;
// ErrDeltaTruncated means the delta overflowed — fall back likewise.
func (c *Client) DeltaSince(gen uint64) ([]string, error) {
	var keys []string
	for total := uint64(1); uint64(len(keys)) < total; {
		v, err := c.repairOp(wire.OpDelta, gen, uint64(len(keys)), nil)
		if err != nil {
			return nil, err
		}
		if len(v) < 8 {
			return nil, fmt.Errorf("%w: delta page without a count", ErrBadResponse)
		}
		page := len(keys)
		total, v = binary.LittleEndian.Uint64(v), v[8:]
		for len(v) >= 2 && len(v) >= 2+int(binary.LittleEndian.Uint16(v)) {
			n := 2 + int(binary.LittleEndian.Uint16(v))
			keys, v = append(keys, string(v[2:n])), v[n:]
		}
		if len(v) != 0 || uint64(len(keys)) > total || len(keys) == page && uint64(page) < total {
			return nil, fmt.Errorf("%w: delta page at key %d", ErrBadResponse, page)
		}
	}
	return keys, nil
}

// repairOp sends one repair op — arguments a and b sealed in its control,
// chunk in the frame's payload region — as a frame of one, and returns its
// sealed result fields followed by the chunk its reply carries. A shed op
// was not applied, so run sends it again after a backoff, within the op's
// deadline; a draining donor thus fails a step only at the deadline.
func (c *Client) repairOp(kind wire.Opcode, a, b uint64, chunk []byte) ([]byte, error) {
	args := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(make([]byte, 0, 16), a), b)
	ops := [1]BatchOp{{Kind: BatchOpKind(kind), Value: chunk, args: args}}
	var res [1]BatchResult
	c.run(context.Background(), ops[:], res[:])
	return res[0].Value, res[0].Err
}
