package wire

import (
	"encoding/binary"
	"errors"
	"slices"
)

// ErrControl is returned when decrypted control data is malformed.
var ErrControl = errors.New("wire: malformed control data")

// Control flags.
const (
	// FlagInlineValue marks a put whose (small) value is stored directly
	// inside the enclave — the paper's proposed optimization for values
	// smaller than the control data (§5.2).
	FlagInlineValue uint8 = 1 << iota
	// FlagNotFound, set in sealed response control, authenticates a
	// negative lookup so an adversary on the untrusted path cannot forge
	// not-found answers by flipping the plaintext status byte.
	FlagNotFound
	// FlagReplay, set in sealed response control, authenticates a replay
	// rejection (Algorithm 2's error branch).
	FlagReplay
	// FlagBatch, set in sealed response control, marks the plaintext as a
	// BatchReply rather than a single-op ResponseControl. Because the bit
	// is inside the seal it doubles as an unforgeable demux tag; the
	// single-op encoder never sets it.
	FlagBatch
	// FlagRetryLater, set in sealed response control, authenticates an
	// admission-control shed (StatusRetryLater): the server refused the
	// op before applying it. The seal matters — an unauthenticated
	// RETRY_LATER would let an on-path adversary silently cancel
	// operations. When set, InlineValue carries a little-endian backoff
	// hint in milliseconds (may be empty for "use your own backoff").
	FlagRetryLater
)

// RequestControl is the plaintext of a single-op request's
// transport-encrypted control segment: Algorithm 1's (K_operation, key,
// oid) tuple plus the opcode binding. Only the enclave sees it. Retired
// with the single-op frame (see Request); BatchControl carries the same
// tuple per op.
type RequestControl struct {
	Op    Opcode
	Flags uint8
	Oid   uint64
	Key   []byte
	// OpKey is present for put: the fresh one-time key that encrypted the
	// payload.
	OpKey []byte
	// InlineValue is present when FlagInlineValue is set: the raw value,
	// protected solely by the transport encryption.
	InlineValue []byte
	// Trace is the optional propagated trace context (zero TraceID =
	// absent). It is encoded after all v1 fields so pre-tracing decoders,
	// which ignore trailing bytes, interoperate.
	Trace TraceContext
	// TraceBad is set by the decoder when trailing bytes were present but
	// did not parse as a trace context (bad length, unknown version, zero
	// id) — a version-skewed peer. The request itself is still valid; the
	// server surfaces the skew as a fault annotation and a counter
	// instead of silently dropping correlation.
	TraceBad bool
}

// EncodedLen returns the encoded size of the control plaintext.
func (c *RequestControl) EncodedLen() int {
	n := 1 + 1 + 8 + 2 + len(c.Key) + 1 + len(c.OpKey) + 2 + len(c.InlineValue)
	if c.Trace.Valid() {
		n += TraceContextSize
	}
	return n
}

// AppendTo appends the serialized control plaintext to dst and returns
// the result, growing dst at most once.
func (c *RequestControl) AppendTo(dst []byte) ([]byte, error) {
	if len(c.Key) == 0 || len(c.Key) > MaxKeyLen {
		return nil, ErrOversized
	}
	if len(c.OpKey) != 0 && len(c.OpKey) != OpKeySize {
		return nil, ErrControl
	}
	dst = slices.Grow(dst, c.EncodedLen())
	dst = append(dst, byte(c.Op), c.Flags)
	dst = binary.LittleEndian.AppendUint64(dst, c.Oid)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c.Key)))
	dst = append(dst, c.Key...)
	dst = append(dst, byte(len(c.OpKey)))
	dst = append(dst, c.OpKey...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c.InlineValue)))
	dst = append(dst, c.InlineValue...)
	if c.Trace.Valid() {
		dst = AppendTraceContext(dst, c.Trace)
	}
	return dst, nil
}

// Encode serializes the control plaintext into a fresh slice.
func (c *RequestControl) Encode() ([]byte, error) { return c.AppendTo(nil) }

// Decode parses control plaintext into c, overwriting every field. The
// slices alias buf.
func (c *RequestControl) Decode(buf []byte) error {
	if len(buf) < 12 {
		return ErrControl
	}
	*c = RequestControl{Op: Opcode(buf[0]), Flags: buf[1]}
	c.Oid = binary.LittleEndian.Uint64(buf[2:10])
	keyLen := int(binary.LittleEndian.Uint16(buf[10:12]))
	rest := buf[12:]
	if keyLen == 0 || keyLen > MaxKeyLen || len(rest) < keyLen+1 {
		return ErrControl
	}
	c.Key = rest[:keyLen]
	rest = rest[keyLen:]
	opKeyLen := int(rest[0])
	rest = rest[1:]
	if opKeyLen != 0 && opKeyLen != OpKeySize {
		return ErrControl
	}
	if len(rest) < opKeyLen+2 {
		return ErrControl
	}
	c.OpKey = rest[:opKeyLen]
	rest = rest[opKeyLen:]
	inlineLen := int(binary.LittleEndian.Uint16(rest[:2]))
	rest = rest[2:]
	if len(rest) < inlineLen {
		return ErrControl
	}
	if inlineLen > 0 {
		c.InlineValue = rest[:inlineLen]
	}
	rest = rest[inlineLen:]
	if len(rest) > 0 {
		// Trailing bytes after the v1 fields: a trace context from a
		// tracing-aware peer, or garbage from a version-skewed one. Either
		// way the request stays valid — only correlation is at stake.
		if ctx, ok := ParseTraceContext(rest); ok {
			c.Trace = ctx
		} else {
			c.TraceBad = true
		}
	}
	return nil
}

// DecodeRequestControl parses control plaintext. Returned slices alias buf.
func DecodeRequestControl(buf []byte) (*RequestControl, error) {
	c := new(RequestControl)
	if err := c.Decode(buf); err != nil {
		return nil, err
	}
	return c, nil
}

// ResponseControl is the plaintext of a single-op response's
// transport-encrypted control segment: the oid echo (freshness), the
// one-time key needed to decrypt the payload, and — in the hardened
// in-enclave-MAC mode or the inline-value mode — the extra fields. Retired
// with the single-op frame (see Request); every reply carries a
// BatchReply.
type ResponseControl struct {
	Oid   uint64
	Flags uint8
	OpKey []byte
	// PayloadMAC is set in the hardened mode (§3.9): the MAC is stored in
	// the enclave and returned under transport encryption, so an excluded
	// client with network access cannot substitute known values.
	PayloadMAC []byte
	// InlineValue is set when the entry was stored inside the enclave.
	InlineValue []byte
}

// AppendTo appends the serialized response control plaintext to dst and
// returns the result, growing dst at most once.
func (c *ResponseControl) AppendTo(dst []byte) ([]byte, error) {
	if len(c.OpKey) != 0 && len(c.OpKey) != OpKeySize {
		return nil, ErrControl
	}
	if len(c.PayloadMAC) != 0 && len(c.PayloadMAC) != MACSize {
		return nil, ErrControl
	}
	dst = slices.Grow(dst, 9+1+len(c.OpKey)+1+len(c.PayloadMAC)+2+len(c.InlineValue))
	dst = binary.LittleEndian.AppendUint64(dst, c.Oid)
	dst = append(dst, c.Flags)
	dst = append(dst, byte(len(c.OpKey)))
	dst = append(dst, c.OpKey...)
	dst = append(dst, byte(len(c.PayloadMAC)))
	dst = append(dst, c.PayloadMAC...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c.InlineValue)))
	dst = append(dst, c.InlineValue...)
	return dst, nil
}

// Encode serializes the response control plaintext into a fresh slice.
func (c *ResponseControl) Encode() ([]byte, error) { return c.AppendTo(nil) }

// Decode parses response control plaintext into c, overwriting every
// field. The slices alias buf.
func (c *ResponseControl) Decode(buf []byte) error {
	if len(buf) < 11 {
		return ErrControl
	}
	*c = ResponseControl{
		Oid:   binary.LittleEndian.Uint64(buf[:8]),
		Flags: buf[8],
	}
	opKeyLen := int(buf[9])
	rest := buf[10:]
	if opKeyLen != 0 && opKeyLen != OpKeySize {
		return ErrControl
	}
	if len(rest) < opKeyLen+1 {
		return ErrControl
	}
	if opKeyLen > 0 {
		c.OpKey = rest[:opKeyLen]
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
		c.PayloadMAC = rest[:macLen]
	}
	rest = rest[macLen:]
	inlineLen := int(binary.LittleEndian.Uint16(rest[:2]))
	rest = rest[2:]
	if len(rest) < inlineLen {
		return ErrControl
	}
	if inlineLen > 0 {
		c.InlineValue = rest[:inlineLen]
	}
	return nil
}

// DecodeResponseControl parses response control plaintext. Returned
// slices alias buf.
func DecodeResponseControl(buf []byte) (*ResponseControl, error) {
	c := new(ResponseControl)
	if err := c.Decode(buf); err != nil {
		return nil, err
	}
	return c, nil
}
