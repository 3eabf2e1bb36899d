//go:build !amd64 || purego

package cryptox

// useAVX2 is false without the assembly: every block runs the generic
// core, and the kernel below is never reached.
const useAVX2 = false

func salsa20XORAVX2(*byte, *byte, int, *[16]uint32, uint64) { panic("cryptox: no AVX2") }
