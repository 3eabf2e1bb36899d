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
// K_operation is single-use; what a call costs is that set-up plus two
// passes over the value, the Salsa20 core XORing whole blocks from the
// value straight into the frame and the CMAC loop reading whole blocks
// straight from it (DESIGN.md §5 "The per-byte path"). On amd64 both
// passes run assembly — AVX2 Salsa20 for every group of eight blocks,
// AES-NI under the MAC — and purego selects the generic Go paths for both.
// Without AES-NI the MAC keys a crypto/aes cipher.Block, one allocation per
// call. The zero value is ready to use; a PayloadCipher must not be used
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
	start := len(dst)
	dst = slices.Grow(dst, PayloadSealOverhead+len(value))[:start+Salsa20NonceSize+len(value)]
	payload := dst[start:]
	// A fresh nonce per encryption prevents the block-replay attack the
	// paper notes (§3.7).
	if _, err := rand.Read(payload[:Salsa20NonceSize]); err != nil {
		return nil, fmt.Errorf("nonce: %w", err)
	}
	if err := p.stream.init(op[:], payload[:Salsa20NonceSize]); err != nil {
		return nil, err
	}
	if err := p.stream.XORKeyStream(payload[Salsa20NonceSize:], value); err != nil {
		return nil, err
	}
	if err := p.mac.init(op[:macKeySize]); err != nil {
		return nil, err
	}
	_, _ = p.mac.Write(payload)
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
