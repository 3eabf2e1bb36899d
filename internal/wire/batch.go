package wire

// Multi-op batch frames: N operations ride under one control-AEAD seal
// and one ring doorbell, amortizing the per-op seal/verify and signaling
// cost that dominates small-value workloads (the batching analogue of
// the paper's inline-send and selective-signaling optimizations).
//
// A batch request frame is laid out as
//
//	opcode(1)=OpBatch | clientID(4) | controlLen(2) | payloadLen(4) |
//	opCount(2) | sealedControl | payload
//
// where sealedControl is the AEAD-sealed BatchControl — the oid, the
// authoritative op count, and every op's key/flags/key material — and
// payload is the concatenation, in op order, of each external put's
// ciphertext‖MAC segment. Per-op payload lengths live *inside* the seal,
// so the enclave slices the untrusted payload region by authenticated
// extents: the host can neither forge a length nor overlap two ops'
// segments without the extent sum failing to match the region. The op
// index itself is bound by position within the single sealed blob (no
// per-op AD is needed — reordering ops means rewriting sealed bytes).
//
// The batch reply reuses the Response outer frame; its sealed control is
// a BatchReply (FlagBatch set in the flags byte so a client demuxing
// authenticated frames can tell it from a single-op ResponseControl),
// carrying per-op result codes and, for gets, authenticated extents into
// the reply's payload region.

import "encoding/binary"

// MaxBatchOps bounds the ops one batch frame may carry. The frame must
// also fit one ring slot, which in practice binds tighter for puts.
const MaxBatchOps = 128

// Errors returned by the batch codecs, distinct from the generic
// truncation/size errors so adversarial-decode tests (and callers) can
// tell malformed batch structure from short buffers.
var (
	// ErrBatchCount reports an op count of zero, above MaxBatchOps, or
	// disagreeing between the untrusted header and the sealed control.
	ErrBatchCount = errorString("wire: batch op count invalid or mismatched")
	// ErrBatchExtent reports per-op payload extents that do not tile the
	// payload region exactly — a forged length or overlapping segments.
	ErrBatchExtent = errorString("wire: batch payload extents malformed")
)

// errorString is a tiny allocation-free error type for package-level
// sentinel errors.
type errorString string

// Error returns the message.
func (e errorString) Error() string { return string(e) }

// batchHeaderLen is opcode(1) + clientID(4) + controlLen(2) +
// payloadLen(4) + opCount(2).
const batchHeaderLen = 1 + 4 + 2 + 4 + 2

// BatchRequest is the untrusted-header view of a batch frame. Count is
// a routing hint the enclave cross-checks against the sealed control's
// authoritative count.
type BatchRequest struct {
	ClientID      uint32
	Count         int
	SealedControl []byte
	Payload       []byte // concatenated ciphertext‖MAC segments, op order
}

// EncodedLen returns the encoded size of the batch request.
func (r *BatchRequest) EncodedLen() int {
	return batchHeaderLen + len(r.SealedControl) + len(r.Payload)
}

// AppendTo appends the encoded batch request to dst and returns the
// extended slice. It allocates only if dst lacks capacity.
func (r *BatchRequest) AppendTo(dst []byte) ([]byte, error) {
	if len(r.SealedControl) > MaxControlLen {
		return nil, ErrOversized
	}
	if len(r.Payload) > MaxValueLen+64 {
		return nil, ErrOversized
	}
	if r.Count <= 0 || r.Count > MaxBatchOps {
		return nil, ErrBatchCount
	}
	dst = append(dst, byte(OpBatch))
	dst = binary.LittleEndian.AppendUint32(dst, r.ClientID)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.SealedControl)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Payload)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(r.Count))
	dst = append(dst, r.SealedControl...)
	dst = append(dst, r.Payload...)
	return dst, nil
}

// DecodeBatchRequest parses an encoded batch frame into r. The filled
// slices alias buf; r's previous contents are overwritten, never freed,
// so a caller reusing one BatchRequest across frames decodes without
// allocating.
func DecodeBatchRequest(buf []byte, r *BatchRequest) error {
	if len(buf) < batchHeaderLen {
		return ErrTruncated
	}
	if Opcode(buf[0]) != OpBatch {
		return ErrBadOpcode
	}
	r.ClientID = binary.LittleEndian.Uint32(buf[1:5])
	controlLen := int(binary.LittleEndian.Uint16(buf[5:7]))
	payloadLen := int(binary.LittleEndian.Uint32(buf[7:11]))
	r.Count = int(binary.LittleEndian.Uint16(buf[11:13]))
	if controlLen > MaxControlLen || payloadLen > MaxValueLen+64 {
		return ErrOversized
	}
	if r.Count <= 0 || r.Count > MaxBatchOps {
		return ErrBatchCount
	}
	rest := buf[batchHeaderLen:]
	if len(rest) < controlLen+payloadLen {
		return ErrTruncated
	}
	r.SealedControl = rest[:controlLen]
	r.Payload = rest[controlLen : controlLen+payloadLen]
	return nil
}

// BatchOp is one operation inside a sealed BatchControl. For an
// external put, PayloadLen is the op's authenticated extent (ciphertext
// plus MAC) in the frame's untrusted payload region; inline puts carry
// the value here instead and claim no extent.
type BatchOp struct {
	Op          Opcode
	Flags       uint8
	Key         []byte
	OpKey       []byte // fresh one-time key, external put only
	InlineValue []byte // FlagInlineValue put only
	PayloadLen  uint32 // untrusted-region bytes this op claims
}

// BatchControl is the plaintext of a batch request's sealed control
// segment: one oid covering the whole batch (the batch is the replay
// unit) and the op list in wire order.
type BatchControl struct {
	Oid uint64
	Ops []BatchOp
	// Trace is the optional propagated trace context covering the whole
	// batch (the batch is also the correlation unit: one oid, one trace).
	// Encoded after the op list; zero TraceID = absent.
	Trace TraceContext
	// TraceBad is set by the decoder when post-op-list trailing bytes did
	// not parse as a trace context — see RequestControl.TraceBad.
	TraceBad bool
}

// AppendBatchControl appends the serialized control plaintext to dst.
// It allocates only if dst lacks capacity.
func AppendBatchControl(dst []byte, c *BatchControl) ([]byte, error) {
	if len(c.Ops) == 0 || len(c.Ops) > MaxBatchOps {
		return nil, ErrBatchCount
	}
	dst = binary.LittleEndian.AppendUint64(dst, c.Oid)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c.Ops)))
	for i := range c.Ops {
		op := &c.Ops[i]
		if len(op.Key) == 0 && op.Op.keyed() || len(op.Key) > MaxKeyLen {
			return nil, ErrOversized
		}
		if len(op.OpKey) != 0 && len(op.OpKey) != OpKeySize {
			return nil, ErrControl
		}
		if !op.Op.inBatch() {
			return nil, ErrBadOpcode
		}
		dst = append(dst, byte(op.Op), op.Flags)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(op.Key)))
		dst = append(dst, op.Key...)
		dst = append(dst, byte(len(op.OpKey)))
		dst = append(dst, op.OpKey...)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(op.InlineValue)))
		dst = append(dst, op.InlineValue...)
		dst = binary.LittleEndian.AppendUint32(dst, op.PayloadLen)
	}
	if c.Trace.Valid() {
		dst = AppendTraceContext(dst, c.Trace)
	}
	return dst, nil
}

// DecodeBatchControl parses batch control plaintext into c, reusing
// c.Ops' capacity (zero allocations steady-state). Filled slices alias
// buf.
func DecodeBatchControl(buf []byte, c *BatchControl) error {
	if len(buf) < 10 {
		return ErrControl
	}
	c.Oid = binary.LittleEndian.Uint64(buf[:8])
	count := int(binary.LittleEndian.Uint16(buf[8:10]))
	if count == 0 || count > MaxBatchOps {
		return ErrBatchCount
	}
	c.Ops = c.Ops[:0]
	c.Trace, c.TraceBad = TraceContext{}, false
	rest := buf[10:]
	for i := 0; i < count; i++ {
		if len(rest) < 4 {
			return ErrControl
		}
		op := BatchOp{Op: Opcode(rest[0]), Flags: rest[1]}
		if !op.Op.inBatch() {
			return ErrBadOpcode
		}
		keyLen := int(binary.LittleEndian.Uint16(rest[2:4]))
		rest = rest[4:]
		if keyLen == 0 && op.Op.keyed() || keyLen > MaxKeyLen || len(rest) < keyLen+1 {
			return ErrControl
		}
		op.Key = rest[:keyLen]
		rest = rest[keyLen:]
		opKeyLen := int(rest[0])
		rest = rest[1:]
		if opKeyLen != 0 && opKeyLen != OpKeySize {
			return ErrControl
		}
		if len(rest) < opKeyLen+2 {
			return ErrControl
		}
		if opKeyLen > 0 {
			op.OpKey = rest[:opKeyLen]
		}
		rest = rest[opKeyLen:]
		inlineLen := int(binary.LittleEndian.Uint16(rest[:2]))
		rest = rest[2:]
		if len(rest) < inlineLen+4 {
			return ErrControl
		}
		if inlineLen > 0 {
			op.InlineValue = rest[:inlineLen]
		}
		rest = rest[inlineLen:]
		op.PayloadLen = binary.LittleEndian.Uint32(rest[:4])
		if op.PayloadLen > MaxValueLen+64 {
			return ErrOversized
		}
		rest = rest[4:]
		c.Ops = append(c.Ops, op)
	}
	if len(rest) != 0 {
		// Post-op-list bytes: an optional trace context (tracing-aware
		// peer) or garbage from a version-skewed one. Never a hard error —
		// only correlation, not correctness, rides here.
		if ctx, ok := ParseTraceContext(rest); ok {
			c.Trace = ctx
		} else {
			c.TraceBad = true
		}
	}
	return nil
}

// ValidateExtents checks that the ops' authenticated payload extents
// tile a payload region of payloadLen bytes exactly: no gap, no
// overlap, no forged length. Only puts and a restore's snapshot chunk
// claim any. Returns ErrBatchExtent on any mismatch.
func (c *BatchControl) ValidateExtents(payloadLen int) error {
	total := 0
	for i := range c.Ops {
		op := &c.Ops[i]
		n := int(op.PayloadLen)
		switch {
		case op.Op != OpPut && op.Op != OpRestore && n != 0:
			return ErrBatchExtent
		case op.Flags&FlagInlineValue != 0 && n != 0:
			return ErrBatchExtent
		case op.Op == OpPut && op.Flags&FlagInlineValue == 0 && n < MACSize+1:
			// An external put must carry at least one ciphertext byte
			// plus its 16-byte MAC.
			return ErrBatchExtent
		}
		total += n
		if total > payloadLen {
			return ErrBatchExtent
		}
	}
	if total != payloadLen {
		return ErrBatchExtent
	}
	return nil
}

// BatchOpResult is one op's slot in a sealed BatchReply: the per-op
// status, flags, and — for a successful get — the key material and the
// authenticated extent of its segment in the reply's payload region.
type BatchOpResult struct {
	Status      Status
	Flags       uint8
	OpKey       []byte
	PayloadMAC  []byte // hardened mode: the enclave-held MAC
	InlineValue []byte
	PayloadLen  uint32
}

// BatchReply is the plaintext of a batch response's sealed control. Its
// Flags always carry FlagBatch, which is how a client distinguishes an
// authenticated batch reply from a single-op ResponseControl (the flag
// is inside the seal, so the demux bit cannot be forged). A replay
// rejection sets FlagReplay and carries no per-op results.
type BatchReply struct {
	Oid     uint64
	Flags   uint8
	Results []BatchOpResult
}

// IsBatchReply reports whether an opened (authenticated) response
// control plaintext is a batch reply rather than a single-op
// ResponseControl. Both layouts start with oid(8)‖flags(1); FlagBatch
// is never set by the single-op encoder. Every reply a server sends now
// is a batch reply.
func IsBatchReply(pt []byte) bool {
	return len(pt) >= 9 && pt[8]&FlagBatch != 0
}

// AppendBatchReply appends the serialized reply plaintext to dst,
// forcing FlagBatch on. It allocates only if dst lacks capacity.
func AppendBatchReply(dst []byte, r *BatchReply) ([]byte, error) {
	if len(r.Results) > MaxBatchOps {
		return nil, ErrBatchCount
	}
	dst = binary.LittleEndian.AppendUint64(dst, r.Oid)
	dst = append(dst, r.Flags|FlagBatch)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Results)))
	for i := range r.Results {
		res := &r.Results[i]
		if len(res.OpKey) != 0 && len(res.OpKey) != OpKeySize {
			return nil, ErrControl
		}
		if len(res.PayloadMAC) != 0 && len(res.PayloadMAC) != MACSize {
			return nil, ErrControl
		}
		dst = append(dst, byte(res.Status), res.Flags)
		dst = append(dst, byte(len(res.OpKey)))
		dst = append(dst, res.OpKey...)
		dst = append(dst, byte(len(res.PayloadMAC)))
		dst = append(dst, res.PayloadMAC...)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(res.InlineValue)))
		dst = append(dst, res.InlineValue...)
		dst = binary.LittleEndian.AppendUint32(dst, res.PayloadLen)
	}
	return dst, nil
}

// DecodeBatchReply parses batch reply plaintext into r, reusing
// r.Results' capacity. Filled slices alias buf. Returns ErrControl if
// FlagBatch is missing (the caller demuxed wrong).
func DecodeBatchReply(buf []byte, r *BatchReply) error {
	if len(buf) < 11 {
		return ErrControl
	}
	r.Oid = binary.LittleEndian.Uint64(buf[:8])
	r.Flags = buf[8]
	if r.Flags&FlagBatch == 0 {
		return ErrControl
	}
	count := int(binary.LittleEndian.Uint16(buf[9:11]))
	if count > MaxBatchOps {
		return ErrBatchCount
	}
	r.Results = r.Results[:0]
	rest := buf[11:]
	for i := 0; i < count; i++ {
		if len(rest) < 3 {
			return ErrControl
		}
		res := BatchOpResult{Status: Status(rest[0]), Flags: rest[1]}
		opKeyLen := int(rest[2])
		rest = rest[3:]
		if opKeyLen != 0 && opKeyLen != OpKeySize {
			return ErrControl
		}
		if len(rest) < opKeyLen+1 {
			return ErrControl
		}
		if opKeyLen > 0 {
			res.OpKey = rest[:opKeyLen]
		}
		rest = rest[opKeyLen:]
		macLen := int(rest[0])
		rest = rest[1:]
		if macLen != 0 && macLen != MACSize {
			return ErrControl
		}
		if len(rest) < macLen+2 {
			return ErrControl
		}
		if macLen > 0 {
			res.PayloadMAC = rest[:macLen]
		}
		rest = rest[macLen:]
		inlineLen := int(binary.LittleEndian.Uint16(rest[:2]))
		rest = rest[2:]
		if len(rest) < inlineLen+4 {
			return ErrControl
		}
		if inlineLen > 0 {
			res.InlineValue = rest[:inlineLen]
		}
		rest = rest[inlineLen:]
		res.PayloadLen = binary.LittleEndian.Uint32(rest[:4])
		if res.PayloadLen > MaxValueLen+64+MACSize {
			return ErrOversized
		}
		rest = rest[4:]
		r.Results = append(r.Results, res)
	}
	if len(rest) != 0 {
		return ErrControl
	}
	return nil
}

// ValidateReplyExtents checks that get results' payload extents tile a
// reply payload region of payloadLen bytes exactly.
func (r *BatchReply) ValidateReplyExtents(payloadLen int) error {
	total := 0
	for i := range r.Results {
		total += int(r.Results[i].PayloadLen)
		if total > payloadLen {
			return ErrBatchExtent
		}
	}
	if total != payloadLen {
		return ErrBatchExtent
	}
	return nil
}
