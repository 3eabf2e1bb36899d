// Package cryptox provides the cryptographic primitives Precursor relies
// on: the Salsa20 stream cipher for client-side payload encryption,
// AES-CMAC (RFC 4493) for payload authentication, AES-128-GCM for transport
// encryption of control data, and HKDF-SHA-256 for session-key derivation.
//
// The paper implements payload encryption with Libsodium's Salsa20 and
// payload MACs with the SGX SDK's sgx_rijndael128_cmac_msg; both are
// reimplemented here from their public specifications. Each payload kernel
// has amd64 assembly beside a generic Go path: an eight-way AVX2 Salsa20
// keystream (salsa20_amd64.s) beside the generic Salsa20 core, a CMAC on
// its own AES-NI key schedule (aes_amd64.s) beside one keyed through
// crypto/aes, and a payload seal that stitches the two (seal_amd64.s)
// beside running them one after the other. The assembly runs when the CPU
// has the instructions; the purego build tag, other architectures and
// older CPUs take the generic paths, which produce the same bytes.
package cryptox

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"math/bits"
)

// Salsa20 parameter sizes in bytes.
const (
	Salsa20KeySize   = 32
	Salsa20NonceSize = 8
	salsa20BlockSize = 64
	salsa20GroupSize = 8 * salsa20BlockSize // bytes the vector kernel takes at a time
)

// Errors returned by the Salsa20 API.
var (
	ErrSalsa20KeySize   = errors.New("cryptox: salsa20 key must be 32 bytes")
	ErrSalsa20NonceSize = errors.New("cryptox: salsa20 nonce must be 8 bytes")
	ErrShortDst         = errors.New("cryptox: destination shorter than source")
)

// sigma is the Salsa20 expansion constant "expand 32-byte k".
var sigma = [4]uint32{0x61707865, 0x3320646e, 0x79622d32, 0x6b206574}

// Salsa20 is a seekable Salsa20/20 stream cipher instance.
//
// The zero value is not usable; construct instances with NewSalsa20. A
// Salsa20 value must not be used concurrently from multiple goroutines.
type Salsa20 struct {
	state   [16]uint32             // input words; 8 and 9, the block counter, come from counter
	counter uint64                 // block counter of the next block to generate
	block   [salsa20BlockSize]byte // keystream of a partly consumed block
	bufOff  int                    // bytes of block already consumed; 0 = none staged
}

// NewSalsa20 returns a Salsa20/20 cipher keyed with the 32-byte key and the
// 8-byte nonce, positioned at the start of the keystream.
func NewSalsa20(key, nonce []byte) (*Salsa20, error) {
	s := new(Salsa20)
	if err := s.init(key, nonce); err != nil {
		return nil, err
	}
	return s, nil
}

// init keys s in place, positioned at the start of the keystream.
func (s *Salsa20) init(key, nonce []byte) error {
	if len(key) != Salsa20KeySize {
		return ErrSalsa20KeySize
	}
	if len(nonce) != Salsa20NonceSize {
		return ErrSalsa20NonceSize
	}
	*s = Salsa20{}
	s.state[0] = sigma[0]
	s.state[1] = binary.LittleEndian.Uint32(key[0:4])
	s.state[2] = binary.LittleEndian.Uint32(key[4:8])
	s.state[3] = binary.LittleEndian.Uint32(key[8:12])
	s.state[4] = binary.LittleEndian.Uint32(key[12:16])
	s.state[5] = sigma[1]
	s.state[6] = binary.LittleEndian.Uint32(nonce[0:4])
	s.state[7] = binary.LittleEndian.Uint32(nonce[4:8])
	s.state[10] = sigma[2]
	s.state[11] = binary.LittleEndian.Uint32(key[16:20])
	s.state[12] = binary.LittleEndian.Uint32(key[20:24])
	s.state[13] = binary.LittleEndian.Uint32(key[24:28])
	s.state[14] = binary.LittleEndian.Uint32(key[28:32])
	s.state[15] = sigma[3]
	return nil
}

// Seek positions the keystream at the given absolute byte offset.
func (s *Salsa20) Seek(offset uint64) {
	s.counter = offset / salsa20BlockSize
	s.bufOff = int(offset % salsa20BlockSize)
	if s.bufOff != 0 {
		s.stage()
	}
}

// stage generates the next block's keystream into s.block: the core run
// over sixty-four zero bytes in place.
func (s *Salsa20) stage() {
	s.block = [salsa20BlockSize]byte{}
	s.xorBlocks(s.block[:], s.block[:])
}

// XORKeyStream XORs src with the keystream and writes the result to dst.
// dst and src may overlap entirely or not at all.
//
// The keystream is 2^64 blocks = 2^70 bytes long and the block counter
// would wrap after it. No check guards that: Seek takes a byte offset, so a
// stream starts at block 2^58 or below; one call covers a slice of fewer
// than 2^63 bytes = 2^57 blocks; and reaching the end from any reachable
// start takes 2^64 - 2^58 blocks, 1.16e21 bytes — 37 000 years of calls at
// 1 GB/s under one (key, nonce). PayloadCipher re-keys for every value.
func (s *Salsa20) XORKeyStream(dst, src []byte) error {
	if len(dst) < len(src) {
		return ErrShortDst
	}
	if s.bufOff != 0 { // finish the staged block
		n := subtle.XORBytes(dst, src, s.block[s.bufOff:])
		s.bufOff = (s.bufOff + n) % salsa20BlockSize
		dst, src = dst[n:], src[n:]
	}
	if n := len(src) &^ (salsa20BlockSize - 1); n != 0 {
		s.xorBlocks(dst[:n], src[:n])
		dst, src = dst[n:], src[n:]
	}
	if len(src) != 0 { // start one: only a partial block is staged
		s.stage()
		s.bufOff = subtle.XORBytes(dst, src, s.block[:])
	}
	return nil
}

// xorBlocks is the Salsa20/20 core: for each whole 64-byte block of src it
// runs ten double-rounds on sixteen locals, adds the input words and XORs
// the result with src, as little-endian words, straight into dst. len(src)
// must be a multiple of 64 and dst at least as long. The 64-bit block
// counter is carried in s.counter, so the 2^32 boundary needs no special
// case. With AVX2, whole groups of eight blocks go to the vector kernel
// first, which computes them side by side; the generic core takes the rest
// and every input shorter than a group.
func (s *Salsa20) xorBlocks(dst, src []byte) {
	if useAVX2 && len(src) >= salsa20GroupSize {
		n := len(src) &^ (salsa20GroupSize - 1)
		salsa20XORAVX2(&dst[0], &src[0], n/salsa20GroupSize, &s.state, s.counter)
		s.counter += uint64(n / salsa20BlockSize)
		dst, src = dst[n:], src[n:]
	}
	j := &s.state
	ctr := s.counter
	for len(src) >= salsa20BlockSize {
		j8, j9 := uint32(ctr), uint32(ctr>>32)
		x0, x1, x2, x3, x4, x5, x6, x7 := j[0], j[1], j[2], j[3], j[4], j[5], j[6], j[7]
		x8, x9, x10, x11, x12, x13, x14, x15 := j8, j9, j[10], j[11], j[12], j[13], j[14], j[15]
		for i := 0; i < 10; i++ {
			// Column round.
			x4 ^= bits.RotateLeft32(x0+x12, 7)
			x8 ^= bits.RotateLeft32(x4+x0, 9)
			x12 ^= bits.RotateLeft32(x8+x4, 13)
			x0 ^= bits.RotateLeft32(x12+x8, 18)

			x9 ^= bits.RotateLeft32(x5+x1, 7)
			x13 ^= bits.RotateLeft32(x9+x5, 9)
			x1 ^= bits.RotateLeft32(x13+x9, 13)
			x5 ^= bits.RotateLeft32(x1+x13, 18)

			x14 ^= bits.RotateLeft32(x10+x6, 7)
			x2 ^= bits.RotateLeft32(x14+x10, 9)
			x6 ^= bits.RotateLeft32(x2+x14, 13)
			x10 ^= bits.RotateLeft32(x6+x2, 18)

			x3 ^= bits.RotateLeft32(x15+x11, 7)
			x7 ^= bits.RotateLeft32(x3+x15, 9)
			x11 ^= bits.RotateLeft32(x7+x3, 13)
			x15 ^= bits.RotateLeft32(x11+x7, 18)

			// Row round.
			x1 ^= bits.RotateLeft32(x0+x3, 7)
			x2 ^= bits.RotateLeft32(x1+x0, 9)
			x3 ^= bits.RotateLeft32(x2+x1, 13)
			x0 ^= bits.RotateLeft32(x3+x2, 18)

			x6 ^= bits.RotateLeft32(x5+x4, 7)
			x7 ^= bits.RotateLeft32(x6+x5, 9)
			x4 ^= bits.RotateLeft32(x7+x6, 13)
			x5 ^= bits.RotateLeft32(x4+x7, 18)

			x11 ^= bits.RotateLeft32(x10+x9, 7)
			x8 ^= bits.RotateLeft32(x11+x10, 9)
			x9 ^= bits.RotateLeft32(x8+x11, 13)
			x10 ^= bits.RotateLeft32(x9+x8, 18)

			x12 ^= bits.RotateLeft32(x15+x14, 7)
			x13 ^= bits.RotateLeft32(x12+x15, 9)
			x14 ^= bits.RotateLeft32(x13+x12, 13)
			x15 ^= bits.RotateLeft32(x14+x13, 18)
		}
		in, out := src[:salsa20BlockSize], dst[:salsa20BlockSize]
		le := binary.LittleEndian
		le.PutUint32(out[0:], le.Uint32(in[0:])^(x0+j[0]))
		le.PutUint32(out[4:], le.Uint32(in[4:])^(x1+j[1]))
		le.PutUint32(out[8:], le.Uint32(in[8:])^(x2+j[2]))
		le.PutUint32(out[12:], le.Uint32(in[12:])^(x3+j[3]))
		le.PutUint32(out[16:], le.Uint32(in[16:])^(x4+j[4]))
		le.PutUint32(out[20:], le.Uint32(in[20:])^(x5+j[5]))
		le.PutUint32(out[24:], le.Uint32(in[24:])^(x6+j[6]))
		le.PutUint32(out[28:], le.Uint32(in[28:])^(x7+j[7]))
		le.PutUint32(out[32:], le.Uint32(in[32:])^(x8+j8))
		le.PutUint32(out[36:], le.Uint32(in[36:])^(x9+j9))
		le.PutUint32(out[40:], le.Uint32(in[40:])^(x10+j[10]))
		le.PutUint32(out[44:], le.Uint32(in[44:])^(x11+j[11]))
		le.PutUint32(out[48:], le.Uint32(in[48:])^(x12+j[12]))
		le.PutUint32(out[52:], le.Uint32(in[52:])^(x13+j[13]))
		le.PutUint32(out[56:], le.Uint32(in[56:])^(x14+j[14]))
		le.PutUint32(out[60:], le.Uint32(in[60:])^(x15+j[15]))
		ctr++
		src, dst = src[salsa20BlockSize:], dst[salsa20BlockSize:]
	}
	s.counter = ctr
}

// Salsa20XOR is a one-shot helper: it XORs src with the Salsa20 keystream
// for (key, nonce) starting at offset zero and returns the result as a new
// slice. Encryption and decryption are the same operation.
func Salsa20XOR(key, nonce, src []byte) ([]byte, error) {
	var s Salsa20
	if err := s.init(key, nonce); err != nil {
		return nil, err
	}
	dst := make([]byte, len(src))
	return dst, s.XORKeyStream(dst, src)
}
