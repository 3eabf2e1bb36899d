package cryptox

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// RFC 4493 §4 test vectors (AES-128).
var cmacKey = "2b7e151628aed2a6abf7158809cf4f3c"

var cmacVectors = []struct {
	name string
	msg  string
	tag  string
}{
	{"example1-empty", "", "bb1d6929e95937287fa37d129b756746"},
	{"example2-16B", "6bc1bee22e409f96e93d7e117393172a",
		"070a16b46b4d4144f79bdd9dd04a287c"},
	{"example3-40B",
		"6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411",
		"dfa66747de9ae63030ca32611497c827"},
	{"example4-64B",
		"6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51" +
			"30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
		"51f0bebf7e3b9d92fc49741779363cfe"},
}

func TestCMACRFC4493Vectors(t *testing.T) {
	key := mustHex(t, cmacKey)
	for _, tt := range cmacVectors {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ComputeCMAC(key, mustHex(t, tt.msg))
			if err != nil {
				t.Fatalf("ComputeCMAC: %v", err)
			}
			if gotHex := hex.EncodeToString(got); gotHex != tt.tag {
				t.Errorf("tag mismatch: got %s want %s", gotHex, tt.tag)
			}
		})
	}
}

func TestCMACSubkeys(t *testing.T) {
	c, err := NewCMAC(mustHex(t, cmacKey))
	if err != nil {
		t.Fatalf("NewCMAC: %v", err)
	}
	// RFC 4493 §4 subkey generation example.
	if got := hex.EncodeToString(c.k1[:]); got != "fbeed618357133667c85e08f7236a8de" {
		t.Errorf("K1 = %s", got)
	}
	if got := hex.EncodeToString(c.k2[:]); got != "f7ddac306ae266ccf90bc11ee46d513b" {
		t.Errorf("K2 = %s", got)
	}
}

func TestCMACKeySizes(t *testing.T) {
	for _, size := range []int{16, 24, 32} {
		if _, err := NewCMAC(make([]byte, size)); err != nil {
			t.Errorf("key size %d rejected: %v", size, err)
		}
	}
	for _, size := range []int{0, 8, 15, 17, 33} {
		if _, err := NewCMAC(make([]byte, size)); err != ErrCMACKeySize {
			t.Errorf("key size %d: got %v, want ErrCMACKeySize", size, err)
		}
	}
}

// TestCMACIncrementalEquivalence: writing a message in arbitrary chunks
// must produce the same tag as a single write.
func TestCMACIncrementalEquivalence(t *testing.T) {
	key := mustHex(t, cmacKey)
	f := func(seed int64, sizeHint uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		msg := make([]byte, int(sizeHint)%1024)
		rng.Read(msg)

		want, err := ComputeCMAC(key, msg)
		if err != nil {
			return false
		}
		c, err := NewCMAC(key)
		if err != nil {
			return false
		}
		for off := 0; off < len(msg); {
			n := rng.Intn(33) + 1
			if off+n > len(msg) {
				n = len(msg) - off
			}
			_, _ = c.Write(msg[off : off+n])
			off += n
		}
		return bytes.Equal(c.Sum(nil), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCMACSumIdempotent(t *testing.T) {
	c, err := NewCMAC(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = c.Write([]byte("hello precursor"))
	a := c.Sum(nil)
	b := c.Sum(nil)
	if !bytes.Equal(a, b) {
		t.Error("Sum is not idempotent")
	}
	_, _ = c.Write([]byte(" more"))
	d := c.Sum(nil)
	if bytes.Equal(a, d) {
		t.Error("tag unchanged after more data")
	}
}

func TestCMACReset(t *testing.T) {
	c, err := NewCMAC(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = c.Write([]byte("abc"))
	first := c.Sum(nil)
	c.Reset()
	_, _ = c.Write([]byte("abc"))
	second := c.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Error("Reset did not restore initial state")
	}
}

func TestVerifyCMAC(t *testing.T) {
	key := make([]byte, 16)
	msg := []byte("payload bytes")
	tag, err := ComputeCMAC(key, msg)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := VerifyCMAC(key, msg, tag)
	if err != nil || !ok {
		t.Fatalf("valid tag rejected: ok=%v err=%v", ok, err)
	}
	tag[0] ^= 1
	ok, err = VerifyCMAC(key, msg, tag)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("corrupted tag accepted")
	}
	ok, err = VerifyCMAC(key, msg, tag[:8])
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("truncated tag accepted")
	}
}

// TestCMACDistinguishesMessages: flipping any single bit of a message must
// change the tag (probabilistically certain; checked on samples).
func TestCMACDistinguishesMessages(t *testing.T) {
	key := mustHex(t, cmacKey)
	msg := []byte("the quick brown fox jumps over the lazy dog 0123456789")
	base, err := ComputeCMAC(key, msg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 15, 16, 17, 31, 32, len(msg) - 1} {
		mut := append([]byte(nil), msg...)
		mut[i] ^= 0x80
		tag, err := ComputeCMAC(key, mut)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(tag, base) {
			t.Errorf("bit flip at byte %d left tag unchanged", i)
		}
	}
}

func BenchmarkCMAC(b *testing.B) {
	for _, size := range []int{64, 1024, 4096, 16384} {
		b.Run(byteSizeName(size), func(b *testing.B) {
			key := make([]byte, 16)
			msg := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ComputeCMAC(key, msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
