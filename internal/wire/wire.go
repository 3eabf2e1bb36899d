// Package wire defines Precursor's request and response encodings.
//
// A request as written into the server's ring buffer consists of an
// untrusted header, the transport-encrypted control data (whose plaintext
// only the enclave sees), and — for put() — the client-encrypted payload
// plus its MAC, which stay in untrusted memory. The one request frame is
// the batch frame (batch.go); a single op is a frame of one. The split is the paper's
// core mechanism (Fig. 2/3): the server copies only the sealed control
// bytes into the enclave.
//
// All integers are little-endian. Requests and responses carry explicit
// start and end operands at the ring-buffer framing layer (see
// internal/ringbuf); within a frame the opcode and lengths below apply.
package wire

import (
	"encoding/binary"
	"errors"
	"slices"
)

// Opcode identifies a key-value operation.
type Opcode uint8

// Operations supported by the store.
const (
	OpPut Opcode = iota + 1
	OpGet
	OpDelete
	// OpBatch marks a multi-op frame: N ops under one control seal and
	// one ring doorbell (see batch.go).
	OpBatch
	// OpSnapshot, OpRestore and OpDelta are the repair ops (PROTOCOL.md
	// §10): they move a sealed snapshot or a page of dirtied keys between
	// replicas, name no key, and ride a batch frame's control only.
	OpSnapshot
	OpRestore
	OpDelta
)

func (o Opcode) String() string {
	switch o {
	case OpPut:
		return "PUT"
	case OpGet:
		return "GET"
	case OpDelete:
		return "DELETE"
	case OpBatch:
		return "BATCH"
	case OpSnapshot:
		return "SNAPSHOT"
	case OpRestore:
		return "RESTORE"
	case OpDelta:
		return "DELTA"
	}
	return "UNKNOWN"
}

// keyed reports whether o is a key-value op, which names a key.
func (o Opcode) keyed() bool { return o == OpPut || o == OpGet || o == OpDelete }

// inBatch reports whether o may ride a batch frame's control: a key-value
// op or a repair op.
func (o Opcode) inBatch() bool { return o.keyed() || o >= OpSnapshot && o <= OpDelta }

// Status is a server response status.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusReplay     // stale or repeated oid — possible replay attack
	StatusAuthFailed // control data failed authenticated decryption
	StatusBadRequest
	StatusServerError
	// StatusRetryLater is the admission-control shed outcome: the server
	// refused to apply the operation because it is overloaded (or
	// draining) and guarantees the op was NOT applied. It is not an
	// error — clients retry after the sealed backoff hint.
	StatusRetryLater
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusReplay:
		return "REPLAY"
	case StatusAuthFailed:
		return "AUTH_FAILED"
	case StatusBadRequest:
		return "BAD_REQUEST"
	case StatusServerError:
		return "SERVER_ERROR"
	case StatusRetryLater:
		return "RETRY_LATER"
	}
	return "UNKNOWN"
}

// Errors returned by the codecs.
var (
	ErrTruncated = errors.New("wire: message truncated")
	ErrOversized = errors.New("wire: field exceeds maximum size")
	ErrBadOpcode = errors.New("wire: unknown opcode")
)

// Limits. Keys follow typical KV-store limits; values up to 16 KiB match
// the paper's largest evaluated size (the format allows up to 1 MiB).
const (
	MaxKeyLen     = 4096
	MaxValueLen   = 1 << 20
	MaxControlLen = 8192
	MACSize       = 16
	OpKeySize     = 32
)

// Request is the untrusted-header view of a single-op request frame.
// SealedControl is opaque ciphertext to everything outside the enclave;
// Payload and PayloadMAC never enter it. The frame is retired — every
// request is a batch frame, a single op a frame of one (PROTOCOL.md §3) —
// and a server refuses it; the codec stays for the benchmark's probes.
type Request struct {
	Op            Opcode
	ClientID      uint32
	SealedControl []byte
	Payload       []byte // nonce‖ciphertext, put only
	PayloadMAC    []byte // 16-byte CMAC over Payload, put only
}

// requestHeaderLen is opcode(1) + clientID(4) + controlLen(2) + payloadLen(4).
const requestHeaderLen = 1 + 4 + 2 + 4

// EncodedLen returns the encoded size of the request.
func (r *Request) EncodedLen() int {
	return RequestFrameLen(r.Op, len(r.SealedControl), len(r.Payload))
}

// RequestFrameLen returns the encoded size of a request frame carrying a
// sealed control segment of controlLen bytes and a payload segment of
// payloadLen bytes (nonce‖ciphertext; its MAC is added here). Only a put
// with a non-empty payload carries one.
func RequestFrameLen(op Opcode, controlLen, payloadLen int) int {
	n := requestHeaderLen + controlLen
	if op == OpPut && payloadLen > 0 {
		n += payloadLen + MACSize
	}
	return n
}

// AppendRequestHeader appends the untrusted request header announcing a
// sealed control segment of controlLen bytes and a payload segment of
// payloadLen bytes (nonce‖ciphertext, without its MAC; 0 when the frame
// carries none), reserving capacity for the whole frame so the caller's
// following appends — sealed control, then payload‖MAC — never regrow it.
func AppendRequestHeader(dst []byte, op Opcode, clientID uint32, controlLen, payloadLen int) ([]byte, error) {
	if controlLen > MaxControlLen {
		return nil, ErrOversized
	}
	if payloadLen > MaxValueLen+64 {
		return nil, ErrOversized
	}
	if op != OpPut && op != OpGet && op != OpDelete {
		return nil, ErrBadOpcode
	}
	if op != OpPut {
		payloadLen = 0
	}
	dst = slices.Grow(dst, RequestFrameLen(op, controlLen, payloadLen))
	dst = append(dst, byte(op))
	dst = binary.LittleEndian.AppendUint32(dst, clientID)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(controlLen))
	return binary.LittleEndian.AppendUint32(dst, uint32(payloadLen)), nil
}

// AppendTo appends the encoded request to dst and returns the result,
// growing dst at most once.
func (r *Request) AppendTo(dst []byte) ([]byte, error) {
	dst, err := AppendRequestHeader(dst, r.Op, r.ClientID, len(r.SealedControl), len(r.Payload))
	if err != nil {
		return nil, err
	}
	dst = append(dst, r.SealedControl...)
	if r.Op == OpPut && len(r.Payload) > 0 {
		// Inline-value puts (§5.2) carry no untrusted payload segment;
		// ordinary puts carry nonce‖ciphertext plus its MAC.
		dst = append(dst, r.Payload...)
		if len(r.PayloadMAC) != MACSize {
			return nil, ErrTruncated
		}
		dst = append(dst, r.PayloadMAC...)
	}
	return dst, nil
}

// Encode is AppendTo under its original name.
func (r *Request) Encode(dst []byte) ([]byte, error) { return r.AppendTo(dst) }

// Decode parses an encoded request into r, overwriting every field. The
// slices alias buf.
func (r *Request) Decode(buf []byte) error {
	if len(buf) < requestHeaderLen {
		return ErrTruncated
	}
	*r = Request{Op: Opcode(buf[0])}
	if r.Op != OpPut && r.Op != OpGet && r.Op != OpDelete {
		return ErrBadOpcode
	}
	r.ClientID = binary.LittleEndian.Uint32(buf[1:5])
	controlLen := int(binary.LittleEndian.Uint16(buf[5:7]))
	payloadLen := int(binary.LittleEndian.Uint32(buf[7:11]))
	if controlLen > MaxControlLen || payloadLen > MaxValueLen+64 {
		return ErrOversized
	}
	rest := buf[requestHeaderLen:]
	if len(rest) < controlLen {
		return ErrTruncated
	}
	r.SealedControl = rest[:controlLen]
	rest = rest[controlLen:]
	if r.Op == OpPut && payloadLen > 0 {
		if len(rest) < payloadLen+MACSize {
			return ErrTruncated
		}
		r.Payload = rest[:payloadLen]
		r.PayloadMAC = rest[payloadLen : payloadLen+MACSize]
	}
	return nil
}

// DecodeRequest parses an encoded request. The returned slices alias buf.
func DecodeRequest(buf []byte) (*Request, error) {
	r := new(Request)
	if err := r.Decode(buf); err != nil {
		return nil, err
	}
	return r, nil
}

// Response is the untrusted-header view of a server response. For get(),
// Payload carries the stored ciphertext and its MAC verbatim ("as-is",
// §3.2); SealedControl carries the one-time key and freshness data.
type Response struct {
	Status        Status
	SealedControl []byte
	Payload       []byte // storedPayload‖storedMAC for get
}

const responseHeaderLen = 1 + 2 + 4

// EncodedLen returns the encoded size of the response.
func (r *Response) EncodedLen() int {
	return responseHeaderLen + len(r.SealedControl) + len(r.Payload)
}

// AppendResponseHeader appends the untrusted response header announcing a
// sealed control segment of controlLen bytes (0 for an unauthenticated
// status frame) and payloadLen payload bytes, reserving capacity for the
// whole frame so the caller's following appends never regrow it.
func AppendResponseHeader(dst []byte, status Status, controlLen, payloadLen int) ([]byte, error) {
	if controlLen > MaxControlLen {
		return nil, ErrOversized
	}
	if payloadLen > MaxValueLen+64+MACSize {
		return nil, ErrOversized
	}
	dst = slices.Grow(dst, responseHeaderLen+controlLen+payloadLen)
	dst = append(dst, byte(status))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(controlLen))
	return binary.LittleEndian.AppendUint32(dst, uint32(payloadLen)), nil
}

// AppendTo appends the encoded response to dst and returns the result,
// growing dst at most once.
func (r *Response) AppendTo(dst []byte) ([]byte, error) {
	dst, err := AppendResponseHeader(dst, r.Status, len(r.SealedControl), len(r.Payload))
	if err != nil {
		return nil, err
	}
	dst = append(dst, r.SealedControl...)
	return append(dst, r.Payload...), nil
}

// Encode is AppendTo under its original name.
func (r *Response) Encode(dst []byte) ([]byte, error) { return r.AppendTo(dst) }

// Decode parses an encoded response into r, overwriting every field. The
// slices alias buf.
func (r *Response) Decode(buf []byte) error {
	if len(buf) < responseHeaderLen {
		return ErrTruncated
	}
	*r = Response{Status: Status(buf[0])}
	controlLen := int(binary.LittleEndian.Uint16(buf[1:3]))
	payloadLen := int(binary.LittleEndian.Uint32(buf[3:7]))
	if controlLen > MaxControlLen || payloadLen > MaxValueLen+64+MACSize {
		return ErrOversized
	}
	rest := buf[responseHeaderLen:]
	if len(rest) < controlLen+payloadLen {
		return ErrTruncated
	}
	r.SealedControl = rest[:controlLen]
	r.Payload = rest[controlLen : controlLen+payloadLen]
	return nil
}

// DecodeResponse parses an encoded response. The returned slices alias buf.
func DecodeResponse(buf []byte) (*Response, error) {
	r := new(Response)
	if err := r.Decode(buf); err != nil {
		return nil, err
	}
	return r, nil
}
