package cryptox

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// TestSalsa20ECRYPTVector checks the first keystream block of the ECRYPT
// 256-bit Set 1 vector #0 (also used by golang.org/x/crypto/salsa20).
func TestSalsa20ECRYPTVector(t *testing.T) {
	key := mustHex(t, "8000000000000000000000000000000000000000000000000000000000000000")
	nonce := mustHex(t, "0000000000000000")
	want := mustHex(t,
		"e3be8fdd8beca2e3ea8ef9475b29a6e7003951e1097a5c38d23b7a5fad9f6844"+
			"b22c97559e2723c7cbbd3fe4fc8d9a0744652a83e72a9c461876af4d7ef1a117")

	got, err := Salsa20XOR(key, nonce, make([]byte, 64))
	if err != nil {
		t.Fatalf("Salsa20XOR: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("keystream block 0 mismatch\n got %x\nwant %x", got, want)
	}
}

func TestSalsa20RoundTrip(t *testing.T) {
	key := bytes.Repeat([]byte{0x42}, Salsa20KeySize)
	nonce := bytes.Repeat([]byte{0x17}, Salsa20NonceSize)
	msg := []byte("precursor keeps payload data out of the enclave at all times")

	ct, err := Salsa20XOR(key, nonce, msg)
	if err != nil {
		t.Fatalf("encrypt: %v", err)
	}
	if bytes.Equal(ct, msg) {
		t.Fatal("ciphertext equals plaintext")
	}
	pt, err := Salsa20XOR(key, nonce, ct)
	if err != nil {
		t.Fatalf("decrypt: %v", err)
	}
	if !bytes.Equal(pt, msg) {
		t.Errorf("round trip mismatch: got %q want %q", pt, msg)
	}
}

func TestSalsa20KeyNonceSizes(t *testing.T) {
	if _, err := NewSalsa20(make([]byte, 31), make([]byte, 8)); err != ErrSalsa20KeySize {
		t.Errorf("short key: got %v, want ErrSalsa20KeySize", err)
	}
	if _, err := NewSalsa20(make([]byte, 32), make([]byte, 7)); err != ErrSalsa20NonceSize {
		t.Errorf("short nonce: got %v, want ErrSalsa20NonceSize", err)
	}
}

func TestSalsa20ShortDst(t *testing.T) {
	s, err := NewSalsa20(make([]byte, 32), make([]byte, 8))
	if err != nil {
		t.Fatalf("NewSalsa20: %v", err)
	}
	if err := s.XORKeyStream(make([]byte, 3), make([]byte, 4)); err != ErrShortDst {
		t.Errorf("got %v, want ErrShortDst", err)
	}
}

// TestSalsa20ChunkingEquivalence verifies that splitting the input into
// arbitrary chunks produces the same keystream as one big call.
func TestSalsa20ChunkingEquivalence(t *testing.T) {
	f := func(seed int64, sizeHint uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(sizeHint)%4096 + 1
		msg := make([]byte, size)
		rng.Read(msg)
		key := make([]byte, Salsa20KeySize)
		nonce := make([]byte, Salsa20NonceSize)
		rng.Read(key)
		rng.Read(nonce)

		whole, err := Salsa20XOR(key, nonce, msg)
		if err != nil {
			return false
		}

		s, err := NewSalsa20(key, nonce)
		if err != nil {
			return false
		}
		chunked := make([]byte, size)
		for off := 0; off < size; {
			n := rng.Intn(97) + 1
			if off+n > size {
				n = size - off
			}
			if err := s.XORKeyStream(chunked[off:off+n], msg[off:off+n]); err != nil {
				return false
			}
			off += n
		}
		return bytes.Equal(whole, chunked)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSalsa20Seek verifies Seek(n) matches skipping n bytes of keystream.
func TestSalsa20Seek(t *testing.T) {
	key := bytes.Repeat([]byte{9}, Salsa20KeySize)
	nonce := bytes.Repeat([]byte{7}, Salsa20NonceSize)

	ref, err := Salsa20XOR(key, nonce, make([]byte, 512))
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, off := range []uint64{0, 1, 63, 64, 65, 127, 128, 300} {
		s, err := NewSalsa20(key, nonce)
		if err != nil {
			t.Fatalf("NewSalsa20: %v", err)
		}
		s.Seek(off)
		got := make([]byte, 512-int(off))
		if err := s.XORKeyStream(got, make([]byte, len(got))); err != nil {
			t.Fatalf("XORKeyStream: %v", err)
		}
		if !bytes.Equal(got, ref[off:]) {
			t.Errorf("Seek(%d): keystream mismatch", off)
		}
	}
}

// TestSalsa20CounterCarry crosses the 2^32-block boundary (byte offset
// 2^38), where the low counter word wraps and the high one must take the
// carry: 160 bytes before it to 352 bytes after, in one call and in ragged
// chunks, against the one-block reference.
func TestSalsa20CounterCarry(t *testing.T) {
	key := bytes.Repeat([]byte{0x5a}, Salsa20KeySize)
	nonce := []byte("carry\x00\x01\x02")
	const start = uint64(1)<<38 - 160
	src := make([]byte, 512)
	rand.New(rand.NewSource(38)).Read(src)
	want := refSalsa20XOR(key, nonce, start, src)
	if bytes.Equal(want[160:224], refSalsa20XOR(key, nonce, 0, src[160:224])) {
		t.Fatal("reference ignores the high counter word")
	}

	for _, chunks := range [][]int{{512}, {1, 63, 95, 1, 64, 130, 158}, {159, 2, 351}, {160, 352}, {96, 128, 288}} {
		s, err := NewSalsa20(key, nonce)
		if err != nil {
			t.Fatal(err)
		}
		s.Seek(start)
		got := make([]byte, len(src))
		off := 0
		for _, n := range chunks {
			if err := s.XORKeyStream(got[off:off+n], src[off:off+n]); err != nil {
				t.Fatal(err)
			}
			off += n
		}
		if off != len(src) || !bytes.Equal(got, want) {
			t.Errorf("chunks %v: keystream across the 2^32-block boundary differs from the reference", chunks)
		}
	}
}

// TestSalsa20InPlace encrypts with dst == src, the overlap XORKeyStream
// documents, at the block edges and the benchmark's value size.
func TestSalsa20InPlace(t *testing.T) {
	key := bytes.Repeat([]byte{3}, Salsa20KeySize)
	nonce := bytes.Repeat([]byte{4}, Salsa20NonceSize)
	rng := rand.New(rand.NewSource(4096))
	for _, n := range []int{0, 1, 63, 64, 65, 4095, 4096, 4097} {
		msg := make([]byte, n)
		rng.Read(msg)
		want := refSalsa20XOR(key, nonce, 0, msg)
		s, err := NewSalsa20(key, nonce)
		if err != nil {
			t.Fatal(err)
		}
		buf := append([]byte(nil), msg...)
		if err := s.XORKeyStream(buf, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("%d bytes in place: differs from the reference", n)
		}
	}
}

// TestSalsa20KernelsAgree runs the AVX2 kernel and the generic core side by
// side in one binary: one call over the whole input hands every group of
// eight blocks to the kernel, while the same stream fed in calls shorter
// than a group never reaches it. Every length 0-9 KiB (odd ones in place);
// then, copying and in place, from every seek residue at block counters 0
// and 2^32 - j for j = 1..8, so that the counter carry falls on every lane
// of a group.
func TestSalsa20KernelsAgree(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernel in this build or on this CPU")
	}
	key := bytes.Repeat([]byte{0xa7}, Salsa20KeySize)
	nonce := []byte("kernels\x00")
	src := make([]byte, 9<<10)
	rand.New(rand.NewSource(8)).Read(src)

	check := func(offset uint64, n int, inPlace bool) {
		t.Helper()
		s, err := NewSalsa20(key, nonce)
		if err != nil {
			t.Fatal(err)
		}
		s.Seek(offset)
		want := make([]byte, n)
		for off := 0; off < n; off += salsa20GroupSize - 1 {
			end := min(n, off+salsa20GroupSize-1)
			if err := s.XORKeyStream(want[off:end], src[off:end]); err != nil {
				t.Fatal(err)
			}
		}

		s.Seek(offset)
		got := make([]byte, n)
		in := src[:n]
		if inPlace {
			copy(got, in)
			in = got
		}
		if err := s.XORKeyStream(got, in); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("offset %d, %d bytes, in place %v: the AVX2 kernel differs from the generic core", offset, n, inPlace)
		}
	}

	for n := 0; n <= len(src); n++ {
		check(0, n, n%2 == 1)
	}
	for j := uint64(0); j <= 8; j++ {
		base := uint64(0)
		if j > 0 {
			base = (1<<32 - j) * salsa20BlockSize
		}
		for r := uint64(0); r < salsa20BlockSize; r++ {
			for _, n := range []int{511, 512, 513, 1024 + 63, 4096, len(src)} {
				check(base+r, n, false)
				check(base+r, n, true)
			}
		}
	}
}

// TestSalsa20DistinctNonces checks that different nonces yield unrelated
// keystreams (the property the fresh-IV-per-put requirement rests on).
func TestSalsa20DistinctNonces(t *testing.T) {
	key := bytes.Repeat([]byte{1}, Salsa20KeySize)
	a, err := Salsa20XOR(key, []byte("nonce001"), make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Salsa20XOR(key, []byte("nonce002"), make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Error("keystreams for distinct nonces are equal")
	}
}

func BenchmarkSalsa20(b *testing.B) {
	for _, size := range []int{64, 256, 512, 1024, 4096, 16384} {
		b.Run(byteSizeName(size), func(b *testing.B) {
			key := make([]byte, Salsa20KeySize)
			nonce := make([]byte, Salsa20NonceSize)
			src := make([]byte, size)
			dst := make([]byte, size)
			s, err := NewSalsa20(key, nonce)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.XORKeyStream(dst, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func byteSizeName(n int) string {
	if n >= 1024 && n%1024 == 0 {
		return strconv.Itoa(n/1024) + "KiB"
	}
	return strconv.Itoa(n) + "B"
}
