//go:build amd64 && !purego

package cryptox

// useSealAVX2 reports whether PayloadCipher.SealAppend hands whole groups
// to the stitched Salsa20 + CBC-MAC kernel (seal_amd64.s): it needs the
// AVX2 Salsa20 and the AES-NI chain both.
var useSealAVX2 = useAVX2 && useAESNI

// payloadSealAVX2 XORs groups × 512 bytes of src with the Salsa20/20
// keystream of the input words state, blocks counter, counter+1, ..., into
// dst, and absorbs the groups × 32 blocks at mac into the CBC-MAC state x
// under the AES-128 round keys xk, interleaving the two. Iteration g chains
// mac[512g:512g+512], so mac must start at least 512 bytes before dst:
// the chain then reads only bytes written before the iteration that reads
// them.
// dst must not alias src.
//
//go:noescape
func payloadSealAVX2(dst, src *byte, groups int, state *[16]uint32, counter uint64, xk *uint32, x *[CMACSize]byte, mac *byte)
