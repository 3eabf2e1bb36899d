package cryptox

import (
	"crypto/rand"
	"fmt"
	"slices"
)

// macKeySize is how much of K_operation keys the payload MAC: the first
// 16 bytes of the 256-bit one-time key serve as the AES-128-CMAC key. The
// key is single-use, so domain separation between the stream-cipher key
// and the MAC key is provided by the differing algorithms and the key's
// freshness.
const macKeySize = 16

// PayloadSealOverhead is the number of bytes PayloadCipher.SealAppend adds
// on top of the value: the Salsa20 nonce in front and the CMAC tag behind.
const PayloadSealOverhead = Salsa20NonceSize + CMACSize

// MACKey derives the AES-128-CMAC key for a payload from the operation key.
// The paper MACs the ciphertext under (a key derived from) K_operation so
// that any holder of the control data can verify payload integrity.
func MACKey(op OperationKey) []byte {
	return append([]byte(nil), op[:macKeySize]...)
}

// PayloadCipher is the caller-owned state of the client's payload
// cryptography (Algorithm 1): the Salsa20 stream and the one-shot CMAC,
// AES key schedule included. Keeping both in one long-lived value — one
// per connection — means a seal allocates nothing and an open only the
// plaintext handed back. Both are re-keyed on every call, since
// K_operation is single-use; what a call costs is that set-up plus the
// passes over the value, the Salsa20 core XORing whole blocks from the
// value straight into the frame and the CMAC loop reading whole blocks
// straight from it (DESIGN.md §5 "The per-byte path"). An open makes two
// passes, MAC then stream, so nothing is decrypted before it verifies. A
// seal of a value of two 512-byte groups or more makes one over all whole
// groups but the first: with AVX2 and AES-NI, a stitched kernel runs the
// CBC-MAC chain in the gaps of the vector Salsa20, one group behind it.
// Otherwise, and for the rest of the value, both passes run their own
// assembly — AVX2 Salsa20 for every group of eight blocks, AES-NI under
// the MAC — and purego selects the generic Go paths for both. Without
// AES-NI the MAC keys a crypto/aes cipher.Block, one allocation per call.
// The zero value is ready to use; a PayloadCipher must not be used
// concurrently from multiple goroutines.
type PayloadCipher struct {
	stream Salsa20
	mac    CMAC
}

// SealAppend encrypts value under op with a fresh nonce, MACs
// nonce‖ciphertext, and appends nonce‖ciphertext‖mac to dst — the client
// "precursor" work of Algorithm 1, lines 2–4, written straight into the
// caller's frame. dst must not alias value.
func (p *PayloadCipher) SealAppend(dst []byte, op *OperationKey, value []byte) ([]byte, error) {
	return p.seal(dst, op, nil, value)
}

// seal is SealAppend under the given 8-byte nonce, or under a fresh random
// one when nonce is nil.
//
// With the stitched kernel, whole groups after the first are encrypted and
// MACed in one pass, the chain one group behind the stream cipher; the
// first group goes through the plain AVX2 Salsa20, since nothing is yet
// written for the chain to run beside it. The partial group, the last
// group's 32 chain blocks and the final block then go the two-pass way.
// The MAC is keyed after the first Salsa20 pass in both cases, as it was
// before the kernel: keyed ahead of it, a 32-byte seal ran about 10 %
// slower.
func (p *PayloadCipher) seal(dst []byte, op *OperationKey, nonce, value []byte) ([]byte, error) {
	start := len(dst)
	dst = slices.Grow(dst, PayloadSealOverhead+len(value))[:start+Salsa20NonceSize+len(value)]
	payload := dst[start:]
	if nonce != nil {
		copy(payload[:Salsa20NonceSize], nonce)
	} else if _, err := rand.Read(payload[:Salsa20NonceSize]); err != nil {
		// A fresh nonce per encryption prevents the block-replay attack
		// the paper notes (§3.7).
		return nil, fmt.Errorf("nonce: %w", err)
	}
	if err := p.stream.init(op[:], payload[:Salsa20NonceSize]); err != nil {
		return nil, err
	}
	ct := payload[Salsa20NonceSize:]
	stitched := useSealAVX2 && len(value) >= 2*salsa20GroupSize
	first := len(value)
	if stitched {
		first = salsa20GroupSize
	}
	if err := p.stream.XORKeyStream(ct[:first], value[:first]); err != nil {
		return nil, err
	}
	if err := p.mac.init(op[:macKeySize]); err != nil {
		return nil, err
	}
	chained := 0 // payload bytes the kernel has absorbed
	if stitched {
		whole := len(value) &^ (salsa20GroupSize - 1)
		chained = whole - salsa20GroupSize
		payloadSealAVX2(&ct[salsa20GroupSize], &value[salsa20GroupSize], chained/salsa20GroupSize,
			&p.stream.state, p.stream.counter, &p.mac.enc[0], &p.mac.x, &payload[0])
		p.stream.counter += uint64(chained / salsa20BlockSize)
		if err := p.stream.XORKeyStream(ct[whole:], value[whole:]); err != nil {
			return nil, err
		}
	}
	_, _ = p.mac.Write(payload[chained:])
	return p.mac.Sum(dst), nil
}

// OpenAppend verifies mac over payload (nonce‖ciphertext) in constant
// time and only then decrypts, appending the value to dst — the
// client-side verification step of a get() reply: recompute the MAC under
// K_operation and compare (§3.7). dst must not alias payload.
func (p *PayloadCipher) OpenAppend(dst []byte, op *OperationKey, payload, mac []byte) ([]byte, error) {
	if err := p.mac.init(op[:macKeySize]); err != nil {
		return nil, err
	}
	_, _ = p.mac.Write(payload)
	if !p.mac.verify(mac) {
		return nil, ErrAuthFailed
	}
	if len(payload) < Salsa20NonceSize {
		return nil, ErrCiphertext
	}
	if err := p.stream.init(op[:], payload[:Salsa20NonceSize]); err != nil {
		return nil, err
	}
	ciphertext := payload[Salsa20NonceSize:]
	start := len(dst)
	dst = slices.Grow(dst, len(ciphertext))[:start+len(ciphertext)]
	return dst, p.stream.XORKeyStream(dst[start:], ciphertext)
}

// EncryptPayload encrypts value under the operation key with a fresh nonce
// and MACs the ciphertext, returning nonce‖ciphertext and the 16-byte tag.
func EncryptPayload(op OperationKey, value []byte) (payload, mac []byte, err error) {
	out, err := new(PayloadCipher).SealAppend(nil, &op, value)
	if err != nil {
		return nil, nil, err
	}
	n := len(out) - CMACSize
	return out[:n:n], out[n:], nil
}

// DecryptPayload verifies the MAC over payload (nonce‖ciphertext) and
// returns the decrypted value.
func DecryptPayload(op OperationKey, payload, mac []byte) ([]byte, error) {
	return new(PayloadCipher).OpenAppend(nil, &op, payload, mac)
}
