package cryptox

import (
	"bytes"
	"crypto/aes"
	"testing"
)

// fit returns b cut or zero-padded to n bytes, so the fuzzer's byte strings
// always form a valid key or nonce.
func fit(b []byte, n int) []byte {
	out := make([]byte, n)
	copy(out, b)
	return out
}

// chunkLen turns one byte of a fuzzed chunk plan into a length between 1
// and 1276 bytes: sub-block, block-aligned and many-block calls all occur.
func chunkLen(b byte) int { return 1 + 5*int(b) }

// FuzzSalsa20MatchesReference: from any seek offset, any split of the input
// into calls — copying or in place — yields the one-block reference's
// keystream.
func FuzzSalsa20MatchesReference(f *testing.F) {
	const carry = uint64(1) << 38 // byte offset of the 2^32-block boundary
	for _, length := range []uint16{0, 1, 63, 64, 65, 127, 128, 129, 511, 512, 513, 1023, 1025, 4095, 4096, 4097, 4159, 8192} {
		f.Add([]byte("k"), []byte("n"), uint64(0), length, []byte{}, false)
		f.Add([]byte("key"), []byte("nonce"), uint64(63), length, []byte{0, 12, 13, 25}, true)
		f.Add([]byte{0x80}, []byte{}, carry-160, length, []byte{}, false)
		f.Add([]byte{0x80}, []byte{}, carry-200, length, []byte{31, 0, 19}, true)
	}
	f.Add([]byte{}, []byte{}, carry-1, uint16(130), []byte{0}, true)
	// A group of eight blocks whose counters straddle 2^32 at lane j, and
	// one that starts right after a staged partial block.
	for j := uint64(1); j <= 7; j++ {
		f.Add([]byte("lane"), []byte{byte(j)}, carry-64*j, uint16(1024), []byte{}, j%2 == 0)
	}
	f.Add([]byte("lane"), []byte{}, carry-64*3-17, uint16(1100), []byte{}, true)
	f.Add([]byte{1, 2, 3}, []byte{4}, ^uint64(0)>>1, uint16(300), []byte{7, 200}, false)

	f.Fuzz(func(t *testing.T, key, nonce []byte, offset uint64, length uint16, plan []byte, inPlace bool) {
		key, nonce = fit(key, Salsa20KeySize), fit(nonce, Salsa20NonceSize)
		offset &= 1<<63 - 1 // the reference adds byte indices to it
		n := int(length) % (8<<10 + 1)
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i*31) ^ key[i%len(key)]
		}
		want := refSalsa20XOR(key, nonce, offset, src)

		s, err := NewSalsa20(key, nonce)
		if err != nil {
			t.Fatal(err)
		}
		s.Seek(offset)
		in := src
		got := make([]byte, n)
		if inPlace {
			copy(got, src)
			in = got
		}
		for off, i := 0, 0; off < n; i++ {
			c := n - off
			if len(plan) > 0 {
				c = min(c, chunkLen(plan[i%len(plan)]))
			}
			if err := s.XORKeyStream(got[off:off+c], in[off:off+c]); err != nil {
				t.Fatal(err)
			}
			off += c
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("offset %d, %d bytes, plan %v, in place %v: differs from the reference", offset, n, plan, inPlace)
		}
	})
}

// FuzzCMACMatchesReference: one Write, any split into Writes, and the
// one-shot helper all give the tag of the RFC 4493 reference.
func FuzzCMACMatchesReference(f *testing.F) {
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 48, 64, 65, 4104} {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i)
		}
		f.Add([]byte("0123456789abcdef"), msg, []byte{})
		f.Add([]byte{}, msg, []byte{0, 3, 2, 6})
	}

	f.Fuzz(func(t *testing.T, key, msg, plan []byte) {
		key = fit(key, macKeySize)
		want := refCMAC(key, msg)

		if got, err := ComputeCMAC(key, msg); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d bytes in one Write: %x, reference %x (%v)", len(msg), got, want, err)
		}
		if len(plan) == 0 {
			return
		}
		c, err := NewCMAC(key)
		if err != nil {
			t.Fatal(err)
		}
		for off, i := 0, 0; off < len(msg); i++ {
			n := min(len(msg)-off, chunkLen(plan[i%len(plan)]))
			_, _ = c.Write(msg[off : off+n]) // never fails
			off += n
		}
		if !c.verify(want) {
			t.Fatalf("%d bytes split by %v: %x, reference %x", len(msg), plan, c.Sum(nil), want)
		}
	})
}

// FuzzPayloadSealMatchesReference: a seal under any key, nonce and length
// up to 9 KiB, behind any prefix, is the one-block reference Salsa20 under
// that nonce and the CMAC of nonce‖ciphertext — stitched kernel or not —
// and opens back to the value.
func FuzzPayloadSealMatchesReference(f *testing.F) {
	for _, length := range []uint16{0, 1, 15, 16, 511, 512, 513, 1023, 1024, 1025, 1536, 4096, 4103, 8192, 9216} {
		f.Add([]byte("key"), []byte("nonce"), length, uint8(0))
		f.Add([]byte{0xff}, []byte{}, length, uint8(5))
	}

	f.Fuzz(func(t *testing.T, key, nonce []byte, length uint16, prefix uint8) {
		var op OperationKey
		copy(op[:], fit(key, len(op)))
		nonce = fit(nonce, Salsa20NonceSize)
		value := make([]byte, int(length)%(9<<10+1))
		for i := range value {
			value[i] = byte(i*29) ^ op[i%len(op)]
		}
		var p PayloadCipher
		sealed, err := p.seal(make([]byte, prefix%32), &op, nonce, value)
		if err != nil {
			t.Fatal(err)
		}
		payload := sealed[prefix%32 : len(sealed)-CMACSize]
		mac := sealed[len(sealed)-CMACSize:]
		if !bytes.Equal(payload[Salsa20NonceSize:], refSalsa20XOR(op[:], nonce, 0, value)) {
			t.Fatalf("%d bytes: ciphertext differs from the reference Salsa20", len(value))
		}
		if want, err := ComputeCMAC(MACKey(op), payload); err != nil || !bytes.Equal(mac, want) {
			t.Fatalf("%d bytes: tag %x, CMAC of nonce‖ciphertext %x (%v)", len(value), mac, want, err)
		}
		if got, err := p.OpenAppend(nil, &op, payload, mac); err != nil || !bytes.Equal(got, value) {
			t.Fatalf("%d bytes: the seal does not open back: %v", len(value), err)
		}
	})
}

// FuzzAESBlockMatchesStdlib: for 16, 24 and 32-byte keys, the schedule CMAC
// expands in place and its one-block encrypt give crypto/aes's ciphertext,
// and absorbing n blocks in one call equals n single-block CBC steps. Run
// with -tags purego (or on a CPU without AES-NI) both sides are crypto/aes,
// which pins the fallback's wiring.
func FuzzAESBlockMatchesStdlib(f *testing.F) {
	for size := range uint8(3) {
		for _, n := range []int{0, 1, 2, 3, 16, 17, 256} {
			data := make([]byte, CMACSize*n+5)
			for i := range data {
				data[i] = byte(i*13 + int(size))
			}
			f.Add([]byte("0123456789abcdef0123456789abcdef"), data, size)
		}
		f.Add([]byte{}, []byte{}, size)
	}

	f.Fuzz(func(t *testing.T, key, data []byte, size uint8) {
		key = fit(key, 16+8*int(size%3))
		block, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		var c CMAC
		if err := c.init(key); err != nil {
			t.Fatal(err)
		}
		var in, want [CMACSize]byte
		copy(in[:], data)
		block.Encrypt(want[:], in[:])
		got := in
		c.encrypt(&got)
		if got != want {
			t.Fatalf("%d-byte key: one block encrypts to %x, crypto/aes %x", len(key), got, want)
		}

		n := len(data) / CMACSize
		if n == 0 {
			return
		}
		c.x, want = in, in // any start state
		c.absorb(data[:n*CMACSize])
		for b := range n {
			xorBlock(&want, data[b*CMACSize:])
			block.Encrypt(want[:], want[:])
		}
		if c.x != want {
			t.Fatalf("%d-byte key, %d blocks in one call: %x, single steps %x", len(key), n, c.x, want)
		}
	})
}
