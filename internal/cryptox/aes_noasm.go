//go:build !amd64 || purego

package cryptox

// useAESNI is false without the assembly: CMAC keys a crypto/aes
// cipher.Block, and the routines below are never reached.
const useAESNI = false

func expandKeyAsm(int, *byte, *uint32)                    { panic("cryptox: no AES-NI") }
func encryptBlockAsm(int, *uint32, *byte, *byte)          { panic("cryptox: no AES-NI") }
func cbcmacAsm(int, *uint32, *[CMACSize]byte, *byte, int) { panic("cryptox: no AES-NI") }
