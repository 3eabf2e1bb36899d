package cryptox

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"errors"
)

// CMACSize is the size in bytes of an AES-CMAC tag.
const CMACSize = 16

// ErrCMACKeySize is returned when the CMAC key is not a valid AES key size.
var ErrCMACKeySize = errors.New("cryptox: cmac key must be 16, 24 or 32 bytes")

// cmacRb is the constant from RFC 4493 §2.3 for 128-bit block ciphers.
const cmacRb = 0x87

// CMAC implements AES-CMAC per RFC 4493. It is a hash.Hash-like incremental
// MAC; construct instances with NewCMAC. A CMAC value must not be used
// concurrently from multiple goroutines.
//
// The AES key schedule is a field: on AES-NI hardware init expands the key
// into enc in place with the standard library's own instructions
// (aes_amd64.s), so a CMAC that lives inside a long-lived value — a
// PayloadCipher, say — is re-keyed without allocating. Elsewhere, and in
// purego builds, block holds a crypto/aes cipher.Block instead. Every other
// block the cipher touches — subkeys, running state, the last-block and
// tag temporaries — is a field too.
type CMAC struct {
	nr    int          // AES rounds of enc: 10, 12 or 14
	enc   [60]uint32   // round keys, when useAESNI
	block cipher.Block // the schedule, when !useAESNI
	k1    [CMACSize]byte
	k2    [CMACSize]byte
	x     [CMACSize]byte // running CBC state
	buf   [CMACSize]byte // pending partial block
	n     int            // bytes pending in buf
	last  [CMACSize]byte // final-block temporary of sum; also L during init
	tag   [CMACSize]byte // sum's result
}

// NewCMAC returns an AES-CMAC instance keyed with key (16, 24 or 32 bytes).
// The paper's server uses sgx_rijndael128_cmac_msg, i.e. AES-128-CMAC; pass
// a 16-byte key for that configuration.
func NewCMAC(key []byte) (*CMAC, error) {
	c := new(CMAC)
	if err := c.init(key); err != nil {
		return nil, err
	}
	return c, nil
}

// init keys c in place, discarding any absorbed input. With AES-NI it
// allocates nothing; the fallback allocates a cipher.Block.
func (c *CMAC) init(key []byte) error {
	switch len(key) {
	case 16, 24, 32:
	default:
		return ErrCMACKeySize
	}
	if useAESNI {
		c.nr = 6 + len(key)/4
		expandKeyAsm(c.nr, &key[0], &c.enc[0])
	} else {
		block, err := aes.NewCipher(key)
		if err != nil {
			return err
		}
		c.block = block
	}
	c.Reset()
	// Subkey generation (RFC 4493 §2.3).
	c.last = [CMACSize]byte{}
	c.encrypt(&c.last)
	shiftLeftOne(c.k1[:], c.last[:])
	if c.last[0]&0x80 != 0 {
		c.k1[CMACSize-1] ^= cmacRb
	}
	shiftLeftOne(c.k2[:], c.k1[:])
	if c.k1[0]&0x80 != 0 {
		c.k2[CMACSize-1] ^= cmacRb
	}
	return nil
}

// Write absorbs p into the MAC state. It never returns an error.
func (c *CMAC) Write(p []byte) (int, error) {
	total := len(p)
	// The final block must stay pending until Sum, so only flush the buffer
	// when more input follows it.
	if c.n == CMACSize && len(p) > 0 {
		c.flushBuf()
	}
	if c.n > 0 {
		n := copy(c.buf[c.n:], p)
		c.n += n
		p = p[n:]
		if c.n == CMACSize && len(p) > 0 {
			c.flushBuf()
		}
	}
	// Process whole blocks straight from p, keeping at least one byte
	// pending for the final block transformation.
	if len(p) > CMACSize {
		n := (len(p) - 1) / CMACSize * CMACSize
		c.absorb(p[:n])
		p = p[n:]
	}
	if len(p) > 0 {
		c.n = copy(c.buf[:], p)
	}
	return total, nil
}

func (c *CMAC) flushBuf() {
	c.absorb(c.buf[:])
	c.n = 0
}

// absorb runs the CBC chain over src, one or more whole blocks, into the
// running state.
func (c *CMAC) absorb(src []byte) {
	if useAESNI {
		cbcmacAsm(c.nr, &c.enc[0], &c.x, &src[0], len(src)/CMACSize)
		return
	}
	for ; len(src) > 0; src = src[CMACSize:] {
		xorBlock(&c.x, src)
		c.block.Encrypt(c.x[:], c.x[:])
	}
}

// encrypt enciphers one block in place.
func (c *CMAC) encrypt(b *[CMACSize]byte) {
	if useAESNI {
		encryptBlockAsm(c.nr, &c.enc[0], &b[0], &b[0])
		return
	}
	c.block.Encrypt(b[:], b[:])
}

// Sum appends the 16-byte tag over everything written so far to b and
// returns the result. Sum does not modify the running state, so a CMAC can
// continue to absorb data afterwards.
func (c *CMAC) Sum(b []byte) []byte {
	return append(b, c.sum()[:]...)
}

// sum computes the tag over everything written so far into c.tag, leaving
// the running state alone.
func (c *CMAC) sum() *[CMACSize]byte {
	c.last = [CMACSize]byte{}
	if c.n == CMACSize {
		copy(c.last[:], c.buf[:])
		xorBlock(&c.last, c.k1[:])
	} else {
		copy(c.last[:], c.buf[:c.n])
		c.last[c.n] = 0x80
		xorBlock(&c.last, c.k2[:])
	}
	c.tag = c.x
	xorBlock(&c.tag, c.last[:])
	c.encrypt(&c.tag)
	return &c.tag
}

// verify reports, in constant time, whether tag is the MAC of everything
// written so far.
func (c *CMAC) verify(tag []byte) bool {
	return subtle.ConstantTimeCompare(c.sum()[:], tag) == 1
}

// Reset restores the CMAC to its freshly keyed state.
func (c *CMAC) Reset() {
	c.x = [CMACSize]byte{}
	c.buf = [CMACSize]byte{}
	c.n = 0
}

// Size returns the tag size in bytes.
func (c *CMAC) Size() int { return CMACSize }

// BlockSize returns the underlying block size in bytes.
func (c *CMAC) BlockSize() int { return CMACSize }

// ComputeCMAC returns the AES-CMAC tag of msg under key.
func ComputeCMAC(key, msg []byte) ([]byte, error) {
	var c CMAC
	if err := c.init(key); err != nil {
		return nil, err
	}
	_, _ = c.Write(msg)
	return c.Sum(nil), nil
}

// VerifyCMAC reports whether tag is the AES-CMAC of msg under key, using a
// constant-time comparison.
func VerifyCMAC(key, msg, tag []byte) (bool, error) {
	var c CMAC
	if err := c.init(key); err != nil {
		return false, err
	}
	_, _ = c.Write(msg)
	return c.verify(tag), nil
}

// shiftLeftOne sets dst to src shifted left by one bit. dst and src must be
// 16 bytes.
func shiftLeftOne(dst, src []byte) {
	var carry byte
	for i := CMACSize - 1; i >= 0; i-- {
		b := src[i]
		dst[i] = b<<1 | carry
		carry = b >> 7
	}
}

// xorBlock XORs the first 16 bytes of b into a, as two 64-bit words.
func xorBlock(a *[CMACSize]byte, b []byte) {
	le := binary.LittleEndian
	le.PutUint64(a[0:], le.Uint64(a[0:])^le.Uint64(b[0:]))
	le.PutUint64(a[8:], le.Uint64(a[8:])^le.Uint64(b[8:]))
}
