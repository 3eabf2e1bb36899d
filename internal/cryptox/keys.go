package cryptox

import (
	"crypto/rand"
	"fmt"
)

// OperationKeySize is the size of the one-time payload key K_operation: the
// paper uses Salsa20 with a 256-bit secret key generated per put().
const OperationKeySize = Salsa20KeySize

// OperationKey is the one-time key a client generates for each put()
// operation. It travels to the enclave inside the transport-encrypted
// control data and is returned to readers on get().
type OperationKey [OperationKeySize]byte

// NewOperationKey draws a fresh one-time key from the system CSPRNG.
func NewOperationKey() (OperationKey, error) {
	var k OperationKey
	if _, err := rand.Read(k[:]); err != nil {
		return OperationKey{}, fmt.Errorf("operation key: %w", err)
	}
	return k, nil
}

// RandomBytes returns n cryptographically random bytes.
func RandomBytes(n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		return nil, fmt.Errorf("random bytes: %w", err)
	}
	return b, nil
}
