package cryptox

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"testing"
)

// TestPayloadCipherReuse drives one long-lived PayloadCipher through many
// keys and sizes, appending behind a prefix: every seal must be what the
// independent primitives produce (Salsa20 under the sealed nonce, CMAC
// under the first half of the key), and every open must give the value
// back — no state may leak from one call into the next.
func TestPayloadCipherReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var p PayloadCipher
	prefix := []byte("frame header")
	buf := make([]byte, 0, 64)
	for _, n := range []int{0, 1, 15, 16, 17, 63, 64, 65, 1000, 4096, 32, 0, 7} {
		value := make([]byte, n)
		rng.Read(value)
		var op OperationKey
		rng.Read(op[:])

		buf = append(buf[:0], prefix...)
		var err error
		if buf, err = p.SealAppend(buf, &op, value); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(buf, prefix) || len(buf) != len(prefix)+n+PayloadSealOverhead {
			t.Fatalf("n=%d: sealed %d bytes behind the prefix, want %d", n, len(buf)-len(prefix), n+PayloadSealOverhead)
		}
		sealed := buf[len(prefix):]
		payload, mac := sealed[:len(sealed)-CMACSize], sealed[len(sealed)-CMACSize:]
		wantCT, err := Salsa20XOR(op[:], payload[:Salsa20NonceSize], value)
		if err != nil || !bytes.Equal(payload[Salsa20NonceSize:], wantCT) {
			t.Fatalf("n=%d: ciphertext is not Salsa20 under the sealed nonce (%v)", n, err)
		}
		wantMAC, err := ComputeCMAC(MACKey(op), payload)
		if err != nil || !bytes.Equal(mac, wantMAC) {
			t.Fatalf("n=%d: tag %x, independent CMAC %x (%v)", n, mac, wantMAC, err)
		}

		out, err := p.OpenAppend([]byte("kept"), &op, payload, mac)
		if err != nil || !bytes.Equal(out, append([]byte("kept"), value...)) {
			t.Fatalf("n=%d: OpenAppend = %x, %v", n, out, err)
		}
		// The wrappers are the same implementation.
		if got, err := DecryptPayload(op, payload, mac); err != nil || !bytes.Equal(got, value) {
			t.Fatalf("n=%d: DecryptPayload of a SealAppend frame: %v", n, err)
		}
	}
}

// TestPayloadCipherVerifiesBeforeDecrypting checks MAC-then-decrypt: a
// frame whose tag does not verify yields ErrAuthFailed and no plaintext,
// whatever was tampered with.
func TestPayloadCipherVerifiesBeforeDecrypting(t *testing.T) {
	var p PayloadCipher
	op, err := NewOperationKey()
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := p.SealAppend(nil, &op, []byte("a value worth protecting"))
	if err != nil {
		t.Fatal(err)
	}
	payload, mac := sealed[:len(sealed)-CMACSize], sealed[len(sealed)-CMACSize:]
	other, _ := NewOperationKey()
	flip := func(b []byte, i int) []byte {
		c := append([]byte(nil), b...)
		c[i] ^= 1
		return c
	}
	cases := []struct {
		name         string
		op           *OperationKey
		payload, mac []byte
	}{
		{"nonce bit", &op, flip(payload, 0), mac},
		{"ciphertext bit", &op, flip(payload, len(payload)-1), mac},
		{"tag bit", &op, payload, flip(mac, 3)},
		{"short tag", &op, payload, mac[:CMACSize-1]},
		{"empty tag", &op, payload, nil},
		{"wrong key", &other, payload, mac},
		{"truncated payload", &op, payload[:len(payload)-1], mac},
	}
	for _, c := range cases {
		out, err := p.OpenAppend(nil, c.op, c.payload, c.mac)
		if !errors.Is(err, ErrAuthFailed) || out != nil {
			t.Errorf("%s: OpenAppend = %x, %v; want nothing and ErrAuthFailed", c.name, out, err)
		}
	}
	// The cipher still works after rejecting.
	if out, err := p.OpenAppend(nil, &op, payload, mac); err != nil || string(out) != "a value worth protecting" {
		t.Errorf("open after rejections = %q, %v", out, err)
	}
}

// TestPayloadCipherAllocBudget is the allocation gate on the payload
// cipher (PRECURSOR_ALLOC_GATE pattern, run without -race). What is left
// is inherent: the AES key schedule of the one-time MAC key — the
// standard library cannot re-key a cipher.Block — and, on open, the
// plaintext the caller keeps.
func TestPayloadCipherAllocBudget(t *testing.T) {
	if os.Getenv("PRECURSOR_ALLOC_GATE") == "" {
		t.Skip("set PRECURSOR_ALLOC_GATE=1 to enforce the allocation budget")
	}
	var p PayloadCipher
	op, err := NewOperationKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{32, 4096} {
		value := make([]byte, n)
		frame, err := p.SealAppend(nil, &op, value) // warm the frame
		if err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(200, func() {
			if frame, err = p.SealAppend(frame[:0], &op, value); err != nil {
				t.Fatal(err)
			}
		}); a > 1 {
			t.Errorf("%d B: payload seal allocates %.1f allocs/run, want <= 1", n, a)
		}
		payload, mac := frame[:len(frame)-CMACSize], frame[len(frame)-CMACSize:]
		if a := testing.AllocsPerRun(200, func() {
			if _, err := p.OpenAppend(nil, &op, payload, mac); err != nil {
				t.Fatal(err)
			}
		}); a > 2 {
			t.Errorf("%d B: payload open allocates %.1f allocs/run, want <= 2", n, a)
		}
	}
	// The control seals allocate nothing into a warm buffer.
	a, err := NewAEAD(make([]byte, SessionKeySize))
	if err != nil {
		t.Fatal(err)
	}
	pt, ad := make([]byte, 60), make([]byte, 4)
	sealed, _ := a.SealAppend(nil, pt, ad)
	opened, _ := a.OpenAppend(nil, sealed, ad)
	if n := testing.AllocsPerRun(200, func() {
		sealed, _ = a.SealAppend(sealed[:0], pt, ad)
		opened, _ = a.OpenAppend(opened[:0], sealed, ad)
	}); n != 0 {
		t.Errorf("control SealAppend+OpenAppend allocate %.1f allocs/run into warm buffers, want 0", n)
	}
}
