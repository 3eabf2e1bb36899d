package cryptox

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"slices"
)

// Transport-encryption parameters. The paper protects control data with
// AES-128 in GCM mode; the 12-byte nonce is carried alongside each message.
const (
	SessionKeySize = 16 // AES-128
	GCMNonceSize   = 12
	GCMTagSize     = 16
	// SealOverhead is the number of bytes Seal adds on top of the plaintext
	// (nonce prefix plus GCM tag).
	SealOverhead = GCMNonceSize + GCMTagSize
)

// Errors returned by the AEAD helpers.
var (
	ErrSessionKeySize = errors.New("cryptox: session key must be 16 bytes")
	ErrCiphertext     = errors.New("cryptox: ciphertext too short")
	ErrAuthFailed     = errors.New("cryptox: authentication failed")
)

// AEAD wraps AES-128-GCM with an attached random nonce, implementing the
// paper's auth-encrypt / auth-decrypt notation for the session channel
// between a client and the server enclave.
type AEAD struct {
	aead cipher.AEAD
}

// NewAEAD returns an AEAD keyed with the 16-byte session key.
func NewAEAD(key []byte) (*AEAD, error) {
	if len(key) != SessionKeySize {
		return nil, ErrSessionKeySize
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("new aes: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("new gcm: %w", err)
	}
	return &AEAD{aead: aead}, nil
}

// Seal authenticates and encrypts plaintext, binding additional data ad,
// and returns nonce‖ciphertext‖tag. A fresh random nonce is drawn per call,
// matching the paper's fresh-IV-per-request requirement.
func (a *AEAD) Seal(plaintext, ad []byte) ([]byte, error) {
	return a.SealAppend(nil, plaintext, ad)
}

// Open verifies and decrypts a message produced by Seal with the same
// additional data, returning the plaintext.
func (a *AEAD) Open(sealed, ad []byte) ([]byte, error) {
	return a.OpenAppend(nil, sealed, ad)
}

// SealAppend is Seal into a caller-provided buffer: it appends
// nonce‖ciphertext‖tag — exactly len(plaintext)+SealOverhead bytes — to
// dst and returns the extended slice, allocating only if dst lacks
// capacity. dst must not alias plaintext.
func (a *AEAD) SealAppend(dst, plaintext, ad []byte) ([]byte, error) {
	// The nonce is drawn in place: a stack array would escape through the
	// cipher.AEAD interface and cost an allocation per seal.
	start := len(dst)
	dst = slices.Grow(dst, len(plaintext)+SealOverhead)[:start+GCMNonceSize]
	nonce := dst[start:]
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("nonce: %w", err)
	}
	return a.aead.Seal(dst, nonce, plaintext, ad), nil
}

// OpenAppend is Open into a caller-provided buffer: it appends the
// plaintext to dst and returns the extended slice, allocating only if
// dst lacks capacity. dst must not alias sealed.
func (a *AEAD) OpenAppend(dst, sealed, ad []byte) ([]byte, error) {
	if len(sealed) < GCMNonceSize+GCMTagSize {
		return nil, ErrCiphertext
	}
	pt, err := a.aead.Open(dst, sealed[:GCMNonceSize], sealed[GCMNonceSize:], ad)
	if err != nil {
		return nil, ErrAuthFailed
	}
	return pt, nil
}

// Overhead returns the bytes added by Seal.
func (a *AEAD) Overhead() int { return SealOverhead }
