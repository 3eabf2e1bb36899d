//go:build !amd64 || purego

package cryptox

// useSealAVX2 is false without the assembly: SealAppend runs the stream
// cipher and the MAC one after the other, and the kernel below is never
// reached.
const useSealAVX2 = false

func payloadSealAVX2(*byte, *byte, int, *[16]uint32, uint64, *uint32, *[CMACSize]byte, *byte) {
	panic("cryptox: no AVX2 seal")
}
