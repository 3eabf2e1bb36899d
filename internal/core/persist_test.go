package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"precursor/internal/cryptox"
	"precursor/internal/wire"
)

// sealAndCapture seals the server state into a buffer.
func sealAndCapture(t *testing.T, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Seal(&buf); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return buf.Bytes()
}

func TestSealRestoreRoundTrip(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()

	for i := 0; i < 50; i++ {
		if err := c.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("value-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := sealAndCapture(t, tc.server)

	// Wipe the store, then restore.
	for i := 0; i < 50; i++ {
		if err := c.Delete(fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if tc.server.Stats().Entries != 0 {
		t.Fatal("wipe failed")
	}
	if err := tc.server.Restore(bytes.NewReader(snap)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := tc.server.Stats().Entries; got != 50 {
		t.Fatalf("entries after restore = %d", got)
	}
	// Values are readable through the normal protocol and verify on the
	// client (the one-time keys and MACs survived the round trip).
	for i := 0; i < 50; i += 7 {
		got, err := c.Get(fmt.Sprintf("k%02d", i))
		if err != nil || string(got) != fmt.Sprintf("value-%02d", i) {
			t.Fatalf("restored k%02d: %q %v", i, got, err)
		}
	}
}

// TestSnapshotRollbackDetected: restoring an older snapshot after a newer
// Seal must fail — the monotonic-counter rollback defence (§2.1).
func TestSnapshotRollbackDetected(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()

	if err := c.Put("state", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	oldSnap := sealAndCapture(t, tc.server)

	if err := c.Put("state", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	_ = sealAndCapture(t, tc.server) // newer snapshot bumps the counter

	if err := tc.server.Restore(bytes.NewReader(oldSnap)); !errors.Is(err, ErrSnapshotRollback) {
		t.Errorf("rollback restore: %v, want ErrSnapshotRollback", err)
	}
	// Current state unchanged.
	if got, err := c.Get("state"); err != nil || string(got) != "v2" {
		t.Errorf("state after rejected rollback: %q %v", got, err)
	}
}

// TestSnapshotTamperDetected: any bit flip in the sealed snapshot fails
// authentication.
func TestSnapshotTamperDetected(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	snap := sealAndCapture(t, tc.server)

	for _, idx := range []int{len(snapshotMagic) + 16, len(snap) / 2, len(snap) - 1} {
		mut := append([]byte(nil), snap...)
		mut[idx] ^= 0x01
		err := tc.server.Restore(bytes.NewReader(mut))
		if !errors.Is(err, ErrSnapshotAuth) && !errors.Is(err, ErrSnapshotFormat) &&
			!errors.Is(err, ErrSnapshotRollback) {
			t.Errorf("tamper at %d: %v", idx, err)
		}
	}
	// Counter-field tampering specifically: flipping the embedded counter
	// must fail (it is bound as AEAD additional data).
	mut := append([]byte(nil), snap...)
	mut[len(snapshotMagic)] ^= 0x01
	if err := tc.server.Restore(bytes.NewReader(mut)); err == nil {
		t.Error("counter tamper accepted")
	}
}

func TestSnapshotGarbageRejected(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	if err := tc.server.Restore(bytes.NewReader([]byte("not a snapshot"))); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("got %v", err)
	}
	if err := tc.server.Restore(bytes.NewReader(nil)); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("empty: got %v", err)
	}
}

// TestSnapshotV1ShapedPlaintextRejected pins the retirement of the v1
// codec: a blob that authenticates under the sealing key at the current
// counter — everything a genuine v1 snapshot would have — but whose
// plaintext opens with an entry count instead of the v2 sentinel is a
// typed format error, and the store it was fed to is left as it was.
func TestSnapshotV1ShapedPlaintextRejected(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	if err := c.Put("kept", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// The v1 body: count u32, then keyLen u16 | key | opKey | owner u32 |
	// flags u8 | mac | dataLen u32 | data per entry.
	plain := binary.LittleEndian.AppendUint32(nil, 1)
	plain = binary.LittleEndian.AppendUint16(plain, 1)
	plain = append(plain, 'k')
	plain = append(plain, make([]byte, wire.OpKeySize+4+1+wire.MACSize)...)
	plain = binary.LittleEndian.AppendUint32(plain, 0)

	key, err := tc.server.enclave.SealingKey()
	if err != nil {
		t.Fatal(err)
	}
	aead, err := cryptox.NewAEAD(key)
	if err != nil {
		t.Fatal(err)
	}
	var ad [8]byte
	binary.LittleEndian.PutUint64(ad[:], tc.server.RollbackCounter())
	sealed, err := aead.Seal(plain, ad[:])
	if err != nil {
		t.Fatal(err)
	}
	blob := append([]byte(nil), snapshotMagic...)
	blob = append(blob, ad[:]...)
	blob = binary.LittleEndian.AppendUint64(blob, uint64(len(sealed)))
	blob = append(blob, sealed...)

	if err := tc.server.Restore(bytes.NewReader(blob)); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("v1-shaped plaintext: %v, want ErrSnapshotFormat", err)
	}
	if got, err := c.Get("kept"); err != nil || string(got) != "v" {
		t.Errorf("store after the refused restore: %q %v", got, err)
	}
}

// TestSnapshotWrongEnclaveRejected: a snapshot sealed by a different
// enclave build (different measurement → different sealing key) must not
// restore.
func TestSnapshotWrongEnclaveRejected(t *testing.T) {
	tcA := newCluster(t, ServerConfig{Image: []byte("build-a")})
	cA := tcA.connect()
	if err := cA.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	snap := sealAndCapture(t, tcA.server)

	tcB := newCluster(t, ServerConfig{Image: []byte("build-b")})
	_ = sealAndCapture(t, tcB.server) // align B's counter with the snapshot's (1)... then one more Seal needed
	// B's counter is now 1, matching the snapshot's counter, so the
	// rollback check passes and the sealing key is what must reject it.
	if err := tcB.server.Restore(bytes.NewReader(snap)); !errors.Is(err, ErrSnapshotAuth) {
		t.Errorf("cross-enclave restore: %v, want ErrSnapshotAuth", err)
	}
}

// TestSealRestoreWithModes covers hardened-MAC and inline-value entries.
func TestSealRestoreWithModes(t *testing.T) {
	tc := newCluster(t, ServerConfig{HardenedMACs: true, InlineSmallValues: true})
	c := tc.connect()

	if err := c.Put("tiny", []byte("abc")); err != nil { // inline path
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{9}, 300)
	if err := c.Put("big", big); err != nil { // hardened pooled path
		t.Fatal(err)
	}
	snap := sealAndCapture(t, tc.server)
	if err := c.Delete("tiny"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("big"); err != nil {
		t.Fatal(err)
	}
	if err := tc.server.Restore(bytes.NewReader(snap)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, err := c.Get("tiny"); err != nil || string(got) != "abc" {
		t.Errorf("tiny after restore: %q %v", got, err)
	}
	if got, err := c.Get("big"); err != nil || !bytes.Equal(got, big) {
		t.Errorf("big after restore: %v", err)
	}

	// A base-layout server has no room for an inline value: it refuses a
	// snapshot holding one rather than dropping the value.
	in := newCluster(t, ServerConfig{InlineSmallValues: true})
	mustPut(t, in.connect(), "tiny", []byte("abc"))
	var inline bytes.Buffer
	if err := in.server.seal(&inline, true); err != nil {
		t.Fatal(err)
	}
	if err := bootMemoryOnly(t, in.platform, false).server.RestoreReplica(&inline); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("base-layout restore of an inline entry: %v, want ErrSnapshotFormat", err)
	}
	// Nor has a server without HardenedMACs a column for the MAC, whatever
	// other mode it runs: it refuses a snapshot holding one.
	var macs bytes.Buffer
	if err := tc.server.seal(&macs, true); err != nil {
		t.Fatal(err)
	}
	if err := tc.newPeer(ServerConfig{InlineSmallValues: true}).server.RestoreReplica(&macs); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("restore of a hardened-MAC entry without HardenedMACs: %v, want ErrSnapshotFormat", err)
	}
}

func TestRollbackCounterMonotonic(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	if v := tc.server.RollbackCounter(); v != 0 {
		t.Errorf("initial counter = %d", v)
	}
	sealAndCapture(t, tc.server)
	sealAndCapture(t, tc.server)
	if v := tc.server.RollbackCounter(); v != 2 {
		t.Errorf("counter after two seals = %d", v)
	}
}

// TestSnapshotTruncated feeds Restore every interesting prefix of a
// valid snapshot — inside the magic, inside the header, inside the
// sealed blob — and requires a typed format error each time, with the
// store still able to restore the intact snapshot afterwards.
func TestSnapshotTruncated(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	for i := 0; i < 10; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	snap := sealAndCapture(t, tc.server)

	hdrEnd := len(snapshotMagic) + 16
	cuts := []int{
		0, 1, // empty, single byte
		len(snapshotMagic) - 1, len(snapshotMagic), // around the magic
		len(snapshotMagic) + 7, hdrEnd - 1, hdrEnd, // inside the header, header only
		hdrEnd + 1, len(snap) / 2, len(snap) - 1, // inside the sealed blob
	}
	for _, n := range cuts {
		if err := tc.server.Restore(bytes.NewReader(snap[:n])); !errors.Is(err, ErrSnapshotFormat) {
			t.Errorf("Restore(snap[:%d]) = %v, want ErrSnapshotFormat", n, err)
		}
	}
	// The rejections must be side-effect free: the intact snapshot still
	// matches the trusted counter and restores.
	if err := tc.server.Restore(bytes.NewReader(snap)); err != nil {
		t.Fatalf("Restore(intact) after truncation probes: %v", err)
	}
}

// FuzzRestore drives Restore with arbitrary host-controlled bytes — the
// exact attack surface, since snapshots live on the untrusted host. The
// invariants: no panic, every rejection is one of the three typed
// snapshot errors, and only inputs beginning with the genuinely sealed
// blob may succeed (trailing junk is ignored by the length-prefixed
// format; any mutation inside the blob must fail authentication).
func FuzzRestore(f *testing.F) {
	tc := newCluster(f, ServerConfig{})
	c := tc.connect()
	for i := 0; i < 8; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tc.server.Seal(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add([]byte{})
	f.Add(append([]byte(nil), snapshotMagic...))
	f.Add(valid[:len(valid)-3])
	bitflip := append([]byte(nil), valid...)
	bitflip[len(bitflip)/2] ^= 0x40
	f.Add(bitflip)
	counterUp := append([]byte(nil), valid...)
	counterUp[len(snapshotMagic)]++ // header counter no longer matches
	f.Add(counterUp)

	f.Fuzz(func(t *testing.T, data []byte) {
		err := tc.server.Restore(bytes.NewReader(data))
		switch {
		case err == nil:
			if !bytes.HasPrefix(data, valid) {
				t.Fatalf("accepted a forged snapshot (%d bytes)", len(data))
			}
		case errors.Is(err, ErrSnapshotFormat),
			errors.Is(err, ErrSnapshotAuth),
			errors.Is(err, ErrSnapshotRollback):
			// Typed rejection: the caller can distinguish a feed error
			// from an attack.
		default:
			t.Fatalf("untyped Restore error: %v", err)
		}
	})
}
