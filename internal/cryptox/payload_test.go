package cryptox

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
// cipher (PRECURSOR_ALLOC_GATE pattern, run without -race). The one-time
// MAC key is expanded into the cipher's own schedule, so a seal into a
// warm frame allocates nothing and an open only the plaintext the caller
// keeps. Without AES-NI (or under -tags purego) the MAC keys a crypto/aes
// cipher.Block, one allocation more each way.
func TestPayloadCipherAllocBudget(t *testing.T) {
	if os.Getenv("PRECURSOR_ALLOC_GATE") == "" {
		t.Skip("set PRECURSOR_ALLOC_GATE=1 to enforce the allocation budget")
	}
	schedule := 0.0
	if !useAESNI {
		schedule = 1
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
		}); a > schedule {
			t.Errorf("%d B: payload seal allocates %.1f allocs/run, want <= %.0f", n, a, schedule)
		}
		payload, mac := frame[:len(frame)-CMACSize], frame[len(frame)-CMACSize:]
		if a := testing.AllocsPerRun(200, func() {
			if _, err := p.OpenAppend(nil, &op, payload, mac); err != nil {
				t.Fatal(err)
			}
		}); a > 1+schedule {
			t.Errorf("%d B: payload open allocates %.1f allocs/run, want <= %.0f", n, a, 1+schedule)
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

// TestPayloadGoldenCrossCommit opens frames sealed by the commit before the
// multi-block Salsa20 core and the word-wise CMAC loop (30ed8f6): the bytes
// a stored value or an in-flight reply carries did not move, so values
// written by an older client still verify and decrypt. Operation key
// 0x10..0x2f, value byte i = 7i mod 256; one partial block and three blocks
// plus a tail.
func TestPayloadGoldenCrossCommit(t *testing.T) {
	var op OperationKey
	for i := range op {
		op[i] = byte(0x10 + i)
	}
	for _, v := range []struct {
		n            int
		payload, mac string
	}{
		{32, "d9bfcaa495bb0ace2348ed32b357e3e5a3bc6ef28d3f406924bf1552ade48c1f0b39f3a8577c6abc",
			"1f999b44803cdb818bef5cc5ecebf759"},
		{200, "2ca413e4c90816d0da82c99faba03798c115c7fa1709c82e9eb07893d9c665f54e66ae0377b346f6" +
			"fbb4d88078b7d6da357f8882d8183190cc05d93f44f308b3a517d1e7211e607cda1a6a5fe8c0399c" +
			"cadb81e78d1c8ec5820bcbc1330c93757257d330fe07218b7c153492cc96da0ba710f5914d5a3f2c" +
			"2cf1dcbb3aef9ce9f3e62f735b348b6fe44d35d7d8cc830015841fa7388acdf8fd9720e57b117879" +
			"b5b25ff9701941e65ed028e5da06833d3b45e14f51c34885d9505d991c4d0ea73e07514cd27e35b2" +
			"b4251051eeada90a",
			"cb3a142a0d1ebd7d72e4df620ff52798"},
	} {
		want := make([]byte, v.n)
		for i := range want {
			want[i] = byte(i * 7)
		}
		payload, mac := mustHex(t, v.payload), mustHex(t, v.mac)
		got, err := new(PayloadCipher).OpenAppend(nil, &op, payload, mac)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%d B: frame sealed at the parent commit opens as %x, %v", v.n, got, err)
		}
		// Sealing draws a random nonce, so the forward direction is pinned
		// through the primitives: same nonce, same ciphertext, same tag.
		ct, err := Salsa20XOR(op[:], payload[:Salsa20NonceSize], want)
		if err != nil || hex.EncodeToString(ct) != v.payload[2*Salsa20NonceSize:] {
			t.Errorf("%d B: ciphertext under the parent's nonce moved (%v)", v.n, err)
		}
		if tag, err := ComputeCMAC(MACKey(op), payload); err != nil || hex.EncodeToString(tag) != v.mac {
			t.Errorf("%d B: tag over the parent's payload moved: %x (%v)", v.n, tag, err)
		}
	}

	// Values that fill whole 512-byte groups, sealed by the commit before
	// the stitched seal kernel (07ff9aa): one group, eight, and eight plus
	// a partial block. Each frame is pinned by its nonce, the SHA-256 of
	// nonce‖ciphertext and the tag, and is resealed under that nonce
	// through the seal itself, which the stitched kernel serves where the
	// CPU has it.
	for _, v := range []struct {
		n                  int
		nonce, digest, mac string
	}{
		{512, "68c4ca7f457f5572", "14b49e4d9aed9d719739ef64a3c7921e821db02b92c396ed44b57ac0c8b54472",
			"2b3035eda548e0084500a779510f7c7a"},
		{4096, "f9e0d14efeec8a1c", "41c23b230a7edddb3a8c4d4ca52ecaac0a3bff4ee88e7acff57d72f58e32d701",
			"880469163a5a6a3fe7078798d924719d"},
		{4103, "c94a4c0e76f66996", "f7dd9e8067ff99777218a04c0b942c42af1a998efb226e7a0bfcc38c0fafd7bc",
			"b8da3596ce1092ab303b5a42db51de0a"},
	} {
		want := make([]byte, v.n)
		for i := range want {
			want[i] = byte(i * 7)
		}
		var p PayloadCipher
		sealed, err := p.seal(nil, &op, mustHex(t, v.nonce), want)
		if err != nil {
			t.Fatal(err)
		}
		payload, mac := sealed[:len(sealed)-CMACSize], sealed[len(sealed)-CMACSize:]
		if digest := sha256.Sum256(payload); hex.EncodeToString(digest[:]) != v.digest {
			t.Errorf("%d B: nonce‖ciphertext under the parent's nonce moved", v.n)
		}
		if hex.EncodeToString(mac) != v.mac {
			t.Errorf("%d B: tag %x, the parent sealed %s", v.n, mac, v.mac)
		}
		if got, err := p.OpenAppend(nil, &op, payload, mustHex(t, v.mac)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%d B: the parent's frame opens as %d bytes, %v", v.n, len(got), err)
		}
	}
}

// twoPassSeal is the seal without the stitched kernel: Salsa20 over value
// from block counter, then CMAC over nonce‖ciphertext, appended to dst.
func twoPassSeal(t *testing.T, dst []byte, key, nonce []byte, counter uint64, value []byte) []byte {
	t.Helper()
	s, err := NewSalsa20(key, nonce)
	if err != nil {
		t.Fatal(err)
	}
	s.Seek(counter * salsa20BlockSize)
	start := len(dst)
	dst = append(append(dst, nonce...), make([]byte, len(value))...)
	if err := s.XORKeyStream(dst[start+Salsa20NonceSize:], value); err != nil {
		t.Fatal(err)
	}
	tag, err := ComputeCMAC(key[:macKeySize], dst[start:])
	if err != nil {
		t.Fatal(err)
	}
	return append(dst, tag...)
}

// TestPayloadSealKernelsAgree runs the stitched seal and the two-pass seal
// side by side in one binary. Every length 0-9 KiB, so every residue mod
// 16 and mod 512, sealed behind a prefix of 0-6 bytes that moves the
// payload's alignment; then the kernel alone, from block counters 2^32 - j
// for j = 0..8, so that the counter carry meets every lane of its first
// group.
func TestPayloadSealKernelsAgree(t *testing.T) {
	if !useSealAVX2 {
		t.Skip("no stitched seal kernel in this build or on this CPU")
	}
	var op OperationKey
	rng := rand.New(rand.NewSource(50))
	rng.Read(op[:])
	src := make([]byte, 9<<10)
	rng.Read(src)

	var p PayloadCipher
	for n := 0; n <= len(src); n++ {
		prefix := []byte("prefix")[:n%7]
		got, err := p.SealAppend(append([]byte(nil), prefix...), &op, src[:n])
		if err != nil {
			t.Fatal(err)
		}
		nonce := got[len(prefix) : len(prefix)+Salsa20NonceSize]
		if want := twoPassSeal(t, append([]byte(nil), prefix...), op[:], nonce, 0, src[:n]); !bytes.Equal(got, want) {
			t.Fatalf("%d bytes behind a %d-byte prefix: the stitched seal differs from the two-pass seal", n, len(prefix))
		}
	}

	// The kernel writes its groups 520 bytes after the chain starts, as
	// SealAppend calls it; the bytes before that stand for the nonce and
	// the first group.
	nonce := []byte("stitched")
	for j := uint64(0); j <= 8; j++ {
		counter := 1<<32 - j
		for _, groups := range []int{1, 2, 17} {
			n := groups * salsa20GroupSize
			want := twoPassSeal(t, nil, op[:], nonce, counter, src[:n])
			buf := make([]byte, salsa20GroupSize+Salsa20NonceSize+n)
			rng.Read(buf[:salsa20GroupSize+Salsa20NonceSize])
			s, err := NewSalsa20(op[:], nonce)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewCMAC(op[:macKeySize])
			if err != nil {
				t.Fatal(err)
			}
			payloadSealAVX2(&buf[salsa20GroupSize+Salsa20NonceSize], &src[0], groups, &s.state, counter, &c.enc[0], &c.x, &buf[0])
			if !bytes.Equal(buf[salsa20GroupSize+Salsa20NonceSize:], want[Salsa20NonceSize:Salsa20NonceSize+n]) {
				t.Fatalf("%d groups from block counter 2^32-%d: ciphertext differs from the two-pass seal", groups, j)
			}
			_, _ = c.Write(buf[n:])
			if tag, err := ComputeCMAC(op[:macKeySize], buf); err != nil || !bytes.Equal(c.Sum(nil), tag) {
				t.Fatalf("%d groups from block counter 2^32-%d: the chain differs from CMAC's (%v)", groups, j, err)
			}
		}
	}
}

// payloadBenchSizes spans the set-up-bound and the byte-bound side of the
// crossover (DESIGN.md §5 "The per-byte path"): the empty value, which is
// set-up alone, the benchmark's small values, its 1 KiB and 4 KiB ones, and
// the paper's largest.
var payloadBenchSizes = []int{0, 32, 64, 128, 256, 512, 1024, 4096, 16384}

// BenchmarkPayloadSeal is the call the client makes per put
// (internal/core/client.go buildRequest, batch.go): a long-lived
// PayloadCipher sealing into a warm frame.
func BenchmarkPayloadSeal(b *testing.B) {
	for _, size := range payloadBenchSizes {
		b.Run(byteSizeName(size), func(b *testing.B) {
			var p PayloadCipher
			op, err := NewOperationKey()
			if err != nil {
				b.Fatal(err)
			}
			value := make([]byte, size)
			frame := make([]byte, 0, size+PayloadSealOverhead)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if frame, err = p.SealAppend(frame[:0], &op, value); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPayloadOpen is the call the client makes per get
// (internal/core/client.go openValue): verify, then decrypt into a slice
// the caller keeps.
func BenchmarkPayloadOpen(b *testing.B) {
	for _, size := range payloadBenchSizes {
		b.Run(byteSizeName(size), func(b *testing.B) {
			var p PayloadCipher
			op, err := NewOperationKey()
			if err != nil {
				b.Fatal(err)
			}
			frame, err := p.SealAppend(nil, &op, make([]byte, size))
			if err != nil {
				b.Fatal(err)
			}
			payload, mac := frame[:len(frame)-CMACSize], frame[len(frame)-CMACSize:]
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchSink, err = p.OpenAppend(nil, &op, payload, mac); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchSink []byte
