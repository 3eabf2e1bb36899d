// Package cryptox provides the cryptographic primitives Precursor relies
// on: the Salsa20 stream cipher for client-side payload encryption,
// AES-CMAC (RFC 4493) for payload authentication, AES-128-GCM for transport
// encryption of control data, and HKDF-SHA-256 for session-key derivation.
//
// The paper implements payload encryption with Libsodium's Salsa20 and
// payload MACs with the SGX SDK's sgx_rijndael128_cmac_msg; both are
// reimplemented here from their public specifications on top of the Go
// standard library only.
package cryptox

import (
	"encoding/binary"
	"errors"
	"math"
)

// Salsa20 parameter sizes in bytes.
const (
	Salsa20KeySize   = 32
	Salsa20NonceSize = 8
	salsa20BlockSize = 64
)

// Errors returned by the Salsa20 API.
var (
	ErrSalsa20KeySize   = errors.New("cryptox: salsa20 key must be 32 bytes")
	ErrSalsa20NonceSize = errors.New("cryptox: salsa20 nonce must be 8 bytes")
	ErrSalsa20Exhausted = errors.New("cryptox: salsa20 keystream exhausted")
	ErrShortDst         = errors.New("cryptox: destination shorter than source")
)

// sigma is the Salsa20 expansion constant "expand 32-byte k".
var sigma = [4]uint32{0x61707865, 0x3320646e, 0x79622d32, 0x6b206574}

// Salsa20 is a seekable Salsa20/20 stream cipher instance.
//
// The zero value is not usable; construct instances with NewSalsa20. A
// Salsa20 value must not be used concurrently from multiple goroutines.
type Salsa20 struct {
	state   [16]uint32
	block   [salsa20BlockSize]byte
	blockAt uint64 // counter value the cached block was produced at
	haveBuf bool
	bufOff  int
	counter uint64
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
	s.state[8] = 0 // counter low
	s.state[9] = 0 // counter high
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
	s.haveBuf = s.bufOff != 0
	if s.haveBuf {
		s.generateBlock(s.counter)
		s.blockAt = s.counter
		s.counter++
	}
}

// XORKeyStream XORs src with the keystream and writes the result to dst.
// dst and src may overlap entirely or not at all. It returns an error if the
// 2^70-byte keystream would be exhausted (practically unreachable).
func (s *Salsa20) XORKeyStream(dst, src []byte) error {
	if len(dst) < len(src) {
		return ErrShortDst
	}
	for len(src) > 0 {
		if !s.haveBuf || s.bufOff == salsa20BlockSize {
			if s.counter == math.MaxUint64 {
				return ErrSalsa20Exhausted
			}
			s.generateBlock(s.counter)
			s.blockAt = s.counter
			s.counter++
			s.bufOff = 0
			s.haveBuf = true
		}
		n := copy(dst, src) // bound by len(src); re-bound below
		if avail := salsa20BlockSize - s.bufOff; n > avail {
			n = avail
		}
		for i := 0; i < n; i++ {
			dst[i] = src[i] ^ s.block[s.bufOff+i]
		}
		s.bufOff += n
		dst = dst[n:]
		src = src[n:]
	}
	return nil
}

// generateBlock runs the Salsa20/20 core for the given 64-byte block counter
// and stores the keystream block in s.block.
func (s *Salsa20) generateBlock(counter uint64) {
	var in [16]uint32
	copy(in[:], s.state[:])
	in[8] = uint32(counter)
	in[9] = uint32(counter >> 32)

	x := in
	for round := 0; round < 20; round += 2 {
		// Column round.
		x[4] ^= rotl32(x[0]+x[12], 7)
		x[8] ^= rotl32(x[4]+x[0], 9)
		x[12] ^= rotl32(x[8]+x[4], 13)
		x[0] ^= rotl32(x[12]+x[8], 18)

		x[9] ^= rotl32(x[5]+x[1], 7)
		x[13] ^= rotl32(x[9]+x[5], 9)
		x[1] ^= rotl32(x[13]+x[9], 13)
		x[5] ^= rotl32(x[1]+x[13], 18)

		x[14] ^= rotl32(x[10]+x[6], 7)
		x[2] ^= rotl32(x[14]+x[10], 9)
		x[6] ^= rotl32(x[2]+x[14], 13)
		x[10] ^= rotl32(x[6]+x[2], 18)

		x[3] ^= rotl32(x[15]+x[11], 7)
		x[7] ^= rotl32(x[3]+x[15], 9)
		x[11] ^= rotl32(x[7]+x[3], 13)
		x[15] ^= rotl32(x[11]+x[7], 18)

		// Row round.
		x[1] ^= rotl32(x[0]+x[3], 7)
		x[2] ^= rotl32(x[1]+x[0], 9)
		x[3] ^= rotl32(x[2]+x[1], 13)
		x[0] ^= rotl32(x[3]+x[2], 18)

		x[6] ^= rotl32(x[5]+x[4], 7)
		x[7] ^= rotl32(x[6]+x[5], 9)
		x[4] ^= rotl32(x[7]+x[6], 13)
		x[5] ^= rotl32(x[4]+x[7], 18)

		x[11] ^= rotl32(x[10]+x[9], 7)
		x[8] ^= rotl32(x[11]+x[10], 9)
		x[9] ^= rotl32(x[8]+x[11], 13)
		x[10] ^= rotl32(x[9]+x[8], 18)

		x[12] ^= rotl32(x[15]+x[14], 7)
		x[13] ^= rotl32(x[12]+x[15], 9)
		x[14] ^= rotl32(x[13]+x[12], 13)
		x[15] ^= rotl32(x[14]+x[13], 18)
	}

	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(s.block[i*4:], x[i]+in[i])
	}
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

func rotl32(v uint32, n uint) uint32 {
	return v<<n | v>>(32-n)
}
