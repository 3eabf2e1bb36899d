//go:build amd64 && !purego

package cryptox

// useAESNI reports whether CMAC runs on its own AES-NI key schedule
// (aes_amd64.s) rather than on a crypto/aes cipher.Block.
var useAESNI = hasAESNI()

// expandKeyAsm writes the nr+1 encryption round keys of key (16, 24 or 32
// bytes for nr = 10, 12, 14) to enc.
//
//go:noescape
func expandKeyAsm(nr int, key *byte, enc *uint32)

// encryptBlockAsm encrypts the block at src into dst under the round keys xk.
//
//go:noescape
func encryptBlockAsm(nr int, xk *uint32, dst, src *byte)

// cbcmacAsm absorbs the n >= 1 blocks at src into the CBC-MAC state x:
// x = AES(x ^ m) for each block m in turn.
//
//go:noescape
func cbcmacAsm(nr int, xk *uint32, x *[CMACSize]byte, src *byte, n int)

// hasAESNI reports whether CPUID advertises the AES instructions.
func hasAESNI() bool
