//go:build amd64 && !purego

package cryptox

// useAVX2 reports whether xorBlocks hands groups of eight blocks to the
// AVX2 kernel (salsa20_amd64.s) before the generic core takes the rest.
var useAVX2 = hasAVX2()

// salsa20XORAVX2 XORs groups × 512 bytes of src with the Salsa20/20
// keystream of the input words state, blocks counter, counter+1, ...,
// into dst. dst may be src.
//
//go:noescape
func salsa20XORAVX2(dst, src *byte, groups int, state *[16]uint32, counter uint64)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
func hasAVX2() bool
