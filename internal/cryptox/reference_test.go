package cryptox

import (
	"crypto/aes"
	"encoding/binary"
)

// The differential references the payload kernels are tested against: a
// one-block Salsa20 routine with a bytewise XOR, and a CBC-MAC written from
// RFC 4493 with a bytewise XOR and no incremental state. They share no code
// with salsa20.go or cmac.go and are deliberately the slow, obvious form.

// refSalsa20Block returns the Salsa20/20 keystream block with the given
// 64-bit block counter.
func refSalsa20Block(key, nonce []byte, counter uint64) [salsa20BlockSize]byte {
	rotl := func(v uint32, n uint) uint32 { return v<<n | v>>(32-n) }
	var in [16]uint32
	in[0] = 0x61707865
	in[5] = 0x3320646e
	in[10] = 0x79622d32
	in[15] = 0x6b206574
	for i := 0; i < 4; i++ {
		in[1+i] = binary.LittleEndian.Uint32(key[4*i:])
		in[11+i] = binary.LittleEndian.Uint32(key[16+4*i:])
	}
	in[6] = binary.LittleEndian.Uint32(nonce[0:4])
	in[7] = binary.LittleEndian.Uint32(nonce[4:8])
	in[8] = uint32(counter)
	in[9] = uint32(counter >> 32)

	x := in
	for round := 0; round < 20; round += 2 {
		// Column round.
		x[4] ^= rotl(x[0]+x[12], 7)
		x[8] ^= rotl(x[4]+x[0], 9)
		x[12] ^= rotl(x[8]+x[4], 13)
		x[0] ^= rotl(x[12]+x[8], 18)

		x[9] ^= rotl(x[5]+x[1], 7)
		x[13] ^= rotl(x[9]+x[5], 9)
		x[1] ^= rotl(x[13]+x[9], 13)
		x[5] ^= rotl(x[1]+x[13], 18)

		x[14] ^= rotl(x[10]+x[6], 7)
		x[2] ^= rotl(x[14]+x[10], 9)
		x[6] ^= rotl(x[2]+x[14], 13)
		x[10] ^= rotl(x[6]+x[2], 18)

		x[3] ^= rotl(x[15]+x[11], 7)
		x[7] ^= rotl(x[3]+x[15], 9)
		x[11] ^= rotl(x[7]+x[3], 13)
		x[15] ^= rotl(x[11]+x[7], 18)

		// Row round.
		x[1] ^= rotl(x[0]+x[3], 7)
		x[2] ^= rotl(x[1]+x[0], 9)
		x[3] ^= rotl(x[2]+x[1], 13)
		x[0] ^= rotl(x[3]+x[2], 18)

		x[6] ^= rotl(x[5]+x[4], 7)
		x[7] ^= rotl(x[6]+x[5], 9)
		x[4] ^= rotl(x[7]+x[6], 13)
		x[5] ^= rotl(x[4]+x[7], 18)

		x[11] ^= rotl(x[10]+x[9], 7)
		x[8] ^= rotl(x[11]+x[10], 9)
		x[9] ^= rotl(x[8]+x[11], 13)
		x[10] ^= rotl(x[9]+x[8], 18)

		x[12] ^= rotl(x[15]+x[14], 7)
		x[13] ^= rotl(x[12]+x[15], 9)
		x[14] ^= rotl(x[13]+x[12], 13)
		x[15] ^= rotl(x[14]+x[13], 18)
	}

	var block [salsa20BlockSize]byte
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], x[i]+in[i])
	}
	return block
}

// refSalsa20XOR returns src XORed, byte by byte, with the keystream of
// (key, nonce) starting at the absolute byte offset.
func refSalsa20XOR(key, nonce []byte, offset uint64, src []byte) []byte {
	dst := make([]byte, len(src))
	var block [salsa20BlockSize]byte
	for i := range src {
		at := offset + uint64(i)
		if i == 0 || at%salsa20BlockSize == 0 {
			block = refSalsa20Block(key, nonce, at/salsa20BlockSize)
		}
		dst[i] = src[i] ^ block[at%salsa20BlockSize]
	}
	return dst
}

// refCMAC returns the AES-CMAC of msg under key, computed over the whole
// message at once as RFC 4493 §2.4 states it.
func refCMAC(key, msg []byte) []byte {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	double := func(in []byte) []byte {
		out := make([]byte, CMACSize)
		for i := range in {
			out[i] = in[i] << 1
			if i+1 < len(in) {
				out[i] |= in[i+1] >> 7
			}
		}
		if in[0]&0x80 != 0 {
			out[CMACSize-1] ^= 0x87
		}
		return out
	}
	l := make([]byte, CMACSize)
	block.Encrypt(l, l)
	k1 := double(l)
	k2 := double(k1)

	n := (len(msg) + CMACSize - 1) / CMACSize
	last := make([]byte, CMACSize)
	if n > 0 && len(msg)%CMACSize == 0 {
		copy(last, msg[(n-1)*CMACSize:])
		for i := range last {
			last[i] ^= k1[i]
		}
	} else {
		if n == 0 {
			n = 1
		}
		copy(last, msg[(n-1)*CMACSize:])
		last[len(msg)-(n-1)*CMACSize] = 0x80
		for i := range last {
			last[i] ^= k2[i]
		}
	}
	x := make([]byte, CMACSize)
	for b := 0; b < n-1; b++ {
		for i := range x {
			x[i] ^= msg[b*CMACSize+i]
		}
		block.Encrypt(x, x)
	}
	for i := range x {
		x[i] ^= last[i]
	}
	block.Encrypt(x, x)
	return x
}
