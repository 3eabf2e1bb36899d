package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
	"time"

	"precursor/internal/audit"
	"precursor/internal/rdma"
	"precursor/internal/sgx"
	"precursor/internal/vlog"
)

// vlogHarness pins the pieces that must survive a simulated kill -9:
// the platform (sealing key), the trusted counter, and the MemFS that
// plays the disk. boot() starts a fresh server "process" over them.
type vlogHarness struct {
	t        *testing.T
	platform *sgx.Platform
	counter  sgx.TrustedCounter
	fs       *vlog.MemFS
	cfg      ServerConfig
}

func newVlogHarness(t *testing.T, seed int64, tune func(*ServerConfig)) *vlogHarness {
	t.Helper()
	platform, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	h := &vlogHarness{
		t:        t,
		platform: platform,
		counter:  sgx.AsTrustedCounter(sgx.NewMonotonicCounter()),
		fs:       vlog.NewMemFS(seed),
	}
	h.cfg = ServerConfig{
		Platform:        platform,
		RollbackCounter: h.counter,
		Workers:         4,
		PollInterval:    time.Microsecond,
		DataDir:         "/data",
		Vlog: VlogConfig{
			FS:         h.fs,
			GCInterval: -1, // tests drive GC explicitly
		},
	}
	if tune != nil {
		tune(&h.cfg)
		h.platform = h.cfg.Platform // tests joining another group share its platform
	}
	return h
}

// boot starts one server incarnation over the harness's disk. Callers
// close it themselves when simulating a crash boundary mid-test.
func (h *vlogHarness) boot() *testCluster {
	h.t.Helper()
	fabric := rdma.NewFabric()
	srvDev, err := fabric.NewDevice(fmt.Sprintf("server-%d", time.Now().UnixNano()))
	if err != nil {
		h.t.Fatal(err)
	}
	server, err := NewServer(srvDev, h.cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(server.Close)
	return &testCluster{t: h.t, fabric: fabric, platform: h.platform, server: server, srvDev: srvDev}
}

func mustPut(t *testing.T, c *Client, key string, val []byte) {
	t.Helper()
	if err := c.Put(key, val); err != nil {
		t.Fatalf("put %s: %v", key, err)
	}
}

// TestVlogPutGetReadThrough: with a tiny cache threshold every value is
// disk-only, so gets exercise the read-through path and its placement
// re-authentication.
func TestVlogPutGetReadThrough(t *testing.T) {
	h := newVlogHarness(t, 7, func(cfg *ServerConfig) {
		cfg.Vlog.InlineMax = 1 // nothing memory-resident
	})
	tc := h.boot()
	c := tc.connect()

	val := bytes.Repeat([]byte("v"), 900)
	for i := 0; i < 64; i++ {
		mustPut(t, c, fmt.Sprintf("k%03d", i), append(val, byte(i)))
	}
	for i := 0; i < 64; i++ {
		got, err := c.Get(fmt.Sprintf("k%03d", i))
		if err != nil || !bytes.Equal(got, append(val, byte(i))) {
			t.Fatalf("get k%03d: %v (len %d)", i, err, len(got))
		}
	}
	st := tc.server.Stats()
	if st.Vlog == nil {
		t.Fatal("Stats().Vlog nil with DataDir set")
	}
	if st.Vlog.ReadThroughs == 0 {
		t.Error("no read-throughs despite InlineMax=1")
	}
	if st.Vlog.Log.SyncedAppends == 0 || st.Vlog.Log.GroupCommits == 0 {
		t.Errorf("append durability not recorded: %+v", st.Vlog.Log)
	}
	// Overwrites mark prior records dead.
	mustPut(t, c, "k000", []byte("replacement"))
	if got, err := c.Get("k000"); err != nil || string(got) != "replacement" {
		t.Fatalf("after overwrite: %q %v", got, err)
	}
	if d := tc.server.Stats().Vlog.Log.DeadBytes; d == 0 {
		t.Error("overwrite did not mark old record dead")
	}
}

// TestVlogReplayOfHardenedMACsNeedsTheColumn: a hardened server's log
// records carry each value's MAC in their sealed metadata, never in the
// record body. A server restarted on that log without HardenedMACs keeps no
// MAC column, so its replay refuses the records rather than serve values
// nobody can verify; restarted with the mode it replays and serves them.
func TestVlogReplayOfHardenedMACsNeedsTheColumn(t *testing.T) {
	h := newVlogHarness(t, 11, func(cfg *ServerConfig) { cfg.HardenedMACs = true })
	tc := h.boot()
	val := bytes.Repeat([]byte("m"), 300)
	mustPut(t, tc.connect(), "hardened", val)
	tc.server.Close()

	h.cfg.HardenedMACs = false
	if _, err := h.boot().server.ReplayVlog(); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("replay of hardened records without HardenedMACs: %v, want ErrSnapshotFormat", err)
	}
	h.cfg.HardenedMACs = true
	tc = h.boot()
	if _, err := tc.server.ReplayVlog(); err != nil {
		t.Fatal(err)
	}
	if got, err := tc.connect().Get("hardened"); err != nil || !bytes.Equal(got, val) {
		t.Fatalf("get after replay with HardenedMACs: %d bytes, %v", len(got), err)
	}
}

// TestVlogCrashRecoveryZeroLostAcked is the headline durability claim:
// every acked put survives kill -9, with no snapshot at all — recovery
// is pure log replay.
func TestVlogCrashRecoveryZeroLostAcked(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		h := newVlogHarness(t, seed, func(cfg *ServerConfig) {
			cfg.Vlog.InlineMax = 1
			cfg.Vlog.SegmentBytes = 8 << 10 // force rotations mid-run
		})
		tc := h.boot()
		c := tc.connect()
		const n = 120
		for i := 0; i < n; i++ {
			mustPut(t, c, fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("value-%03d-%d", i, seed)))
		}
		// Deletes must be durable too.
		if err := c.Delete("key-000"); err != nil {
			t.Fatal(err)
		}
		tc.server.Close()
		h.fs.Crash() // discard everything not fsynced; maybe garble the tear

		tc2 := h.boot()
		rec, err := tc2.server.ReplayVlog()
		if err != nil {
			t.Fatalf("seed %d: ReplayVlog: %v", seed, err)
		}
		if rec.Applied == 0 {
			t.Fatalf("seed %d: replay applied nothing", seed)
		}
		c2 := tc2.connect()
		if _, err := c2.Get("key-000"); !errors.Is(err, ErrNotFound) {
			t.Errorf("seed %d: deleted key resurrected: %v", seed, err)
		}
		for i := 1; i < n; i++ {
			got, err := c2.Get(fmt.Sprintf("key-%03d", i))
			if err != nil || string(got) != fmt.Sprintf("value-%03d-%d", i, seed) {
				t.Fatalf("seed %d: lost acked put key-%03d: %q %v", seed, i, got, err)
			}
		}
		tc2.server.Close()
	}
}

// TestVlogSnapshotPlusReplay: index-only snapshot + log tail replay
// reconstructs the full store, and the snapshot stays small because it
// carries no payloads.
func TestVlogSnapshotPlusReplay(t *testing.T) {
	h := newVlogHarness(t, 11, func(cfg *ServerConfig) {
		cfg.Vlog.InlineMax = 1
	})
	tc := h.boot()
	c := tc.connect()

	big := bytes.Repeat([]byte("x"), 2048)
	for i := 0; i < 40; i++ {
		mustPut(t, c, fmt.Sprintf("pre-%02d", i), big)
	}
	var snap bytes.Buffer
	if err := tc.server.Seal(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Len() > 40*1024 {
		t.Errorf("index-only snapshot carries payloads: %d bytes for ~80KiB of values", snap.Len())
	}
	if tc.server.LastSealDuration() <= 0 {
		t.Error("LastSealDuration not recorded")
	}
	// Post-snapshot writes live only in the log.
	for i := 0; i < 10; i++ {
		mustPut(t, c, fmt.Sprintf("post-%02d", i), []byte(fmt.Sprintf("tail-%02d", i)))
	}
	mustPut(t, c, "pre-00", []byte("rewritten")) // newer than snapshot entry
	tc.server.Close()
	h.fs.Crash()

	tc2 := h.boot()
	if err := tc2.server.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if _, err := tc2.server.ReplayVlog(); err != nil {
		t.Fatalf("ReplayVlog: %v", err)
	}
	c2 := tc2.connect()
	for i := 1; i < 40; i++ {
		got, err := c2.Get(fmt.Sprintf("pre-%02d", i))
		if err != nil || !bytes.Equal(got, big) {
			t.Fatalf("pre-%02d after recovery: %v (len %d)", i, err, len(got))
		}
	}
	for i := 0; i < 10; i++ {
		got, err := c2.Get(fmt.Sprintf("post-%02d", i))
		if err != nil || string(got) != fmt.Sprintf("tail-%02d", i) {
			t.Fatalf("post-%02d after recovery: %q %v", i, got, err)
		}
	}
	// The record replay must not roll back the snapshot-superseding write.
	if got, err := c2.Get("pre-00"); err != nil || string(got) != "rewritten" {
		t.Fatalf("pre-00 after recovery: %q %v", got, err)
	}
}

// TestVlogTornTailTruncatesButTamperRefuses distinguishes the two
// failure classes of satellite 2: a torn write is truncated and
// recovery continues (ErrTornSegment, reported in stats); a record that
// authenticates structurally but fails the enclave's sealed-metadata
// check is tampering and aborts recovery with ErrSnapshotAuth plus an
// audit event.
func TestVlogTornTailTruncatesButTamperRefuses(t *testing.T) {
	aud := audit.New(64)
	h := newVlogHarness(t, 99, func(cfg *ServerConfig) {
		cfg.Vlog.InlineMax = 1
		cfg.Audit = aud
	})
	tc := h.boot()
	c := tc.connect()
	for i := 0; i < 20; i++ {
		mustPut(t, c, fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 300))
	}
	tc.server.Close()

	// Tamper with a synced record: flip one payload byte and fix up the
	// CRC so the damage is structurally invisible.
	const seg = "/data/vlog/seg-00000001.vlog"
	f, err := h.fs.OpenWrite(seg)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	// First record starts at 0: header is magic u32, crc u32, seq u64,
	// flags u8, keyLen u16, metaLen u16, payLen u32 (25 bytes).
	keyLen := int(uint16(buf[17]) | uint16(buf[18])<<8)
	metaLen := int(uint16(buf[19]) | uint16(buf[20])<<8)
	payLen := int(uint32(buf[21]) | uint32(buf[22])<<8 | uint32(buf[23])<<16 | uint32(buf[24])<<24)
	recLen := 25 + keyLen + metaLen + payLen
	// Corrupt the sealed metadata, not the payload: payload integrity is
	// the client's CMAC check (§3.2); what the *enclave* must refuse is a
	// record whose sealed metadata does not authenticate.
	buf[25+keyLen] ^= 0xff
	crc := crc32.Checksum(buf[8:recLen], crc32.MakeTable(crc32.Castagnoli))
	buf[4] = byte(crc)
	buf[5] = byte(crc >> 8)
	buf[6] = byte(crc >> 16)
	buf[7] = byte(crc >> 24)
	if _, err := f.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tc2 := h.boot()
	_, err = tc2.server.ReplayVlog()
	if !errors.Is(err, ErrSnapshotAuth) {
		t.Fatalf("tampered record: got %v, want ErrSnapshotAuth", err)
	}
	if aud.CountsByKind()[audit.KindSnapshotAuth] == 0 {
		t.Error("tamper refusal not audited")
	}
	tc2.server.Close()

	// Torn tail, by contrast, recovers: fresh disk, unsynced garbage at
	// the end of the active segment.
	h2 := newVlogHarness(t, 4242, func(cfg *ServerConfig) { cfg.Vlog.InlineMax = 1 })
	tcA := h2.boot()
	cA := tcA.connect()
	for i := 0; i < 10; i++ {
		mustPut(t, cA, fmt.Sprintf("t%02d", i), bytes.Repeat([]byte{byte(i)}, 200))
	}
	tcA.server.Close()
	// Unsynced junk beyond the durable prefix = a torn group commit.
	w, err := h2.fs.OpenWrite("/data/vlog/seg-00000001.vlog")
	if err != nil {
		t.Fatal(err)
	}
	sz, _ := w.Size()
	if _, err := w.WriteAt(bytes.Repeat([]byte{0xab}, 100), sz); err != nil {
		t.Fatal(err)
	}
	w.Close()
	h2.fs.Crash()

	tcB := h2.boot()
	rec, err := tcB.server.ReplayVlog()
	if err != nil {
		t.Fatalf("torn tail must recover, got %v", err)
	}
	if rec.Replay.Torn != nil && !errors.Is(rec.Replay.Torn, ErrTornSegment) {
		t.Errorf("torn error not typed: %v", rec.Replay.Torn)
	}
	cB := tcB.connect()
	for i := 0; i < 10; i++ {
		if got, err := cB.Get(fmt.Sprintf("t%02d", i)); err != nil || len(got) != 200 {
			t.Fatalf("t%02d after torn recovery: %v", i, err)
		}
	}
}

// TestVlogServesDatasetBeyondMemoryCap is the capacity acceptance test:
// with a small cache cap the store serves a dataset several times the
// cap, entirely through log read-throughs.
func TestVlogServesDatasetBeyondMemoryCap(t *testing.T) {
	const memCap = 64 << 10
	h := newVlogHarness(t, 3, func(cfg *ServerConfig) {
		cfg.Vlog.InlineMax = 4096
		cfg.Vlog.MemoryCapBytes = memCap
	})
	tc := h.boot()
	c := tc.connect()

	val := bytes.Repeat([]byte("d"), 1024)
	const n = 400 // ~400 KiB stored ≥ 4× the 64 KiB cap
	for i := 0; i < n; i++ {
		mustPut(t, c, fmt.Sprintf("big-%04d", i), append(val, byte(i), byte(i>>8)))
	}
	st := tc.server.Stats()
	if st.Vlog.Log.LiveBytes < 4*memCap {
		t.Fatalf("dataset too small for the claim: live=%d cap=%d", st.Vlog.Log.LiveBytes, memCap)
	}
	if st.PoolBytesInUse > 2*memCap {
		t.Errorf("cache blew through the cap: pool=%d cap=%d", st.PoolBytesInUse, memCap)
	}
	for i := 0; i < n; i += 13 {
		got, err := c.Get(fmt.Sprintf("big-%04d", i))
		if err != nil || !bytes.Equal(got, append(val, byte(i), byte(i>>8))) {
			t.Fatalf("big-%04d: %v", i, err)
		}
	}
}

// TestVlogGCCompactsAndSurvivesCrash: overwriting churn makes dead
// segments; GC reclaims them without breaking reads, and — because
// relocated records keep their original sequence numbers — a crash
// right after GC replays to the same state.
func TestVlogGCCompactsAndSurvivesCrash(t *testing.T) {
	h := newVlogHarness(t, 21, func(cfg *ServerConfig) {
		cfg.Vlog.InlineMax = 1
		cfg.Vlog.SegmentBytes = 4 << 10
		cfg.Vlog.GCThreshold = 0.3
	})
	tc := h.boot()
	c := tc.connect()

	// Churn: every key overwritten repeatedly, old versions all dead.
	for round := 0; round < 6; round++ {
		for i := 0; i < 20; i++ {
			mustPut(t, c, fmt.Sprintf("churn-%02d", i),
				[]byte(fmt.Sprintf("round-%d-key-%02d-%s", round, i, bytes.Repeat([]byte("p"), 200))))
		}
	}
	before := tc.server.Stats().Vlog.Log
	tc.server.VlogGCOnce()
	after := tc.server.Stats().Vlog.Log
	if after.GCSegments == 0 || after.GCReclaimed == 0 {
		t.Fatalf("GC reclaimed nothing: before=%+v after=%+v", before, after)
	}
	if after.Segments >= before.Segments {
		t.Errorf("segment count did not drop: %d -> %d", before.Segments, after.Segments)
	}
	// Reads still correct through relocated pointers.
	for i := 0; i < 20; i++ {
		got, err := c.Get(fmt.Sprintf("churn-%02d", i))
		if err != nil || !bytes.HasPrefix(got, []byte(fmt.Sprintf("round-5-key-%02d", i))) {
			t.Fatalf("churn-%02d after GC: %q %v", i, got, err)
		}
	}
	// Crash after GC: replay sees relocated records (with old sequence
	// numbers) after newer ones and must not resurrect stale data.
	tc.server.Close()
	h.fs.Crash()
	tc2 := h.boot()
	if _, err := tc2.server.ReplayVlog(); err != nil {
		t.Fatalf("ReplayVlog after GC: %v", err)
	}
	c2 := tc2.connect()
	for i := 0; i < 20; i++ {
		got, err := c2.Get(fmt.Sprintf("churn-%02d", i))
		if err != nil || !bytes.HasPrefix(got, []byte(fmt.Sprintf("round-5-key-%02d", i))) {
			t.Fatalf("churn-%02d after GC+crash: %q %v", i, got, err)
		}
	}
}

// TestVlogRelocationSwapsOnVersion: compaction moves an index entry only if
// it is still the version the compactor copied, named by (seq, vptr). A put
// of the same key that lands between the copy and the swap keeps the key;
// the relocation of an unchanged entry moves its vptr and keeps its seq and
// its memory copy.
func TestVlogRelocationSwapsOnVersion(t *testing.T) {
	h := newVlogHarness(t, 23, func(cfg *ServerConfig) { cfg.Workers = 1 })
	tc := h.boot()
	s, c := tc.server, tc.connect()
	// copied is what compactSegment holds of key's record when it relocates it.
	copied := func(key string) (entry, vlog.Record, vlogMeta) {
		t.Helper()
		e, ok := s.table.Get(key)
		if !ok {
			t.Fatalf("%s is not in the index", key)
		}
		r, err := s.vlog.ReadAt(e.vptr)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.openVlogMeta(e.vptr, r)
		if err != nil {
			t.Fatal(err)
		}
		return e, r, m
	}
	moved := func() uint64 { return s.Stats().Vlog.GCMovedRecords }
	wantValue := func(key, want string) {
		t.Helper()
		if got, err := c.Get(key); err != nil || string(got) != want {
			t.Fatalf("get %s = %q, %v; want %q", key, got, err, want)
		}
	}

	mustPut(t, c, "raced", []byte("old"))
	old, r, m := copied("raced")
	mustPut(t, c, "raced", []byte("new")) // lands before the swap
	newer, _ := s.table.Get("raced")
	if err := s.relocateRecord(old.vptr, r, &m, true); err != nil {
		t.Fatal(err)
	}
	if cur, _ := s.table.Get("raced"); cur != newer || cur.seq <= old.seq {
		t.Fatalf("a stale relocation (seq %d) touched the newer put: seq %d, vptr %v -> %v", old.seq, cur.seq, newer.vptr, cur.vptr)
	}
	if n := moved(); n != 0 {
		t.Fatalf("a refused relocation counted as moved (%d)", n)
	}
	wantValue("raced", "new")

	mustPut(t, c, "kept", []byte("kept"))
	before, r, m := copied("kept")
	if err := s.relocateRecord(before.vptr, r, &m, true); err != nil {
		t.Fatal(err)
	}
	after, _ := s.table.Get("kept")
	if after.seq != before.seq || after.vptr == before.vptr || after.ref != before.ref {
		t.Fatalf("relocating an unchanged entry: seq %d -> %d, vptr %v -> %v, ref kept %v",
			before.seq, after.seq, before.vptr, after.vptr, after.ref == before.ref)
	}
	if n := moved(); n != 1 {
		t.Fatalf("moved records = %d, want 1", n)
	}
	if _, _, m := copied("kept"); m.seq != before.seq {
		t.Fatalf("the relocated record seals seq %d, want %d", m.seq, before.seq)
	}
	wantValue("kept", "kept")
}

// TestVlogGCRelocationAfterSnapshotRecovers: a snapshot taken before GC
// holds pre-relocation pointers. After a crash, replay meets each
// relocated copy — same sequence, new placement, original segment gone —
// and must adopt the surviving placement rather than marking the only
// live copy dead, or acked, sealed values silently vanish.
func TestVlogGCRelocationAfterSnapshotRecovers(t *testing.T) {
	h := newVlogHarness(t, 77, func(cfg *ServerConfig) {
		cfg.Vlog.InlineMax = 1
		cfg.Vlog.SegmentBytes = 4 << 10
		cfg.Vlog.GCThreshold = 0.3
	})
	tc := h.boot()
	c := tc.connect()
	keepVal := func(i int) []byte {
		return []byte(fmt.Sprintf("keep-%02d-%s", i, bytes.Repeat([]byte("k"), 200)))
	}
	// Interleave long-lived and churn keys so every early segment holds
	// both live and soon-dead records.
	for i := 0; i < 16; i++ {
		mustPut(t, c, fmt.Sprintf("keep-%02d", i), keepVal(i))
		mustPut(t, c, fmt.Sprintf("churn-%02d", i), bytes.Repeat([]byte("c"), 200))
	}
	var snap bytes.Buffer
	if err := tc.server.Seal(&snap); err != nil {
		t.Fatal(err)
	}
	// Churn overwrites push the early segments over the dead-ratio
	// threshold; compaction then relocates the live keep records and
	// removes the segments the snapshot still points into.
	for round := 0; round < 4; round++ {
		for i := 0; i < 16; i++ {
			mustPut(t, c, fmt.Sprintf("churn-%02d", i), bytes.Repeat([]byte{byte('0' + round)}, 200))
		}
	}
	tc.server.VlogGCOnce()
	if tc.server.Stats().Vlog.Log.GCSegments == 0 {
		t.Fatal("GC removed no segment; the scenario needs relocated records")
	}
	tc.server.Close()
	h.fs.Crash()

	tc2 := h.boot()
	if err := tc2.server.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if _, err := tc2.server.ReplayVlog(); err != nil {
		t.Fatalf("ReplayVlog: %v", err)
	}
	c2 := tc2.connect()
	for i := 0; i < 16; i++ {
		got, err := c2.Get(fmt.Sprintf("keep-%02d", i))
		if err != nil || !bytes.Equal(got, keepVal(i)) {
			t.Fatalf("keep-%02d lost after snapshot+GC+crash: %q %v", i, got, err)
		}
	}
	// Post-recovery compaction must not drop the adopted copies either.
	tc2.server.VlogGCOnce()
	for i := 0; i < 16; i++ {
		if got, err := c2.Get(fmt.Sprintf("keep-%02d", i)); err != nil || !bytes.Equal(got, keepVal(i)) {
			t.Fatalf("keep-%02d dropped by post-recovery GC: %v", i, err)
		}
	}
	tc2.server.Close()
}

// TestVlogSealDoesNotStallWriters: satellite 1. A concurrent writer keeps
// making progress while Seal runs; with index-only snapshots the seal's
// table hold is small and bounded.
func TestVlogSealDoesNotStallWriters(t *testing.T) {
	h := newVlogHarness(t, 17, func(cfg *ServerConfig) {
		cfg.Vlog.InlineMax = 1
	})
	tc := h.boot()
	c := tc.connect()
	big := bytes.Repeat([]byte("s"), 4096)
	for i := 0; i < 300; i++ {
		mustPut(t, c, fmt.Sprintf("w-%04d", i), big)
	}
	start := time.Now()
	var snap bytes.Buffer
	if err := tc.server.Seal(&snap); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if d := tc.server.LastSealDuration(); d <= 0 || d > elapsed {
		t.Errorf("seal duration out of range: %v (elapsed %v)", d, elapsed)
	}
	// ~300 entries × ~(key+meta+ptr) ≈ 30KiB; payloads would be 1.2MiB.
	if snap.Len() > 128<<10 {
		t.Errorf("snapshot not index-only: %d bytes", snap.Len())
	}
}

// TestVlogMigrateLegacySnapshot: a v1 (payload-carrying) snapshot from a
// memory-only peer restores into a value-log server by re-appending
// everything into the local log.
func TestVlogMigrateLegacySnapshot(t *testing.T) {
	// Donor: memory-only server on a shared platform and counter.
	platform, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	dtc := bootMemoryOnly(t, platform, false)
	donor, dc := dtc.server, dtc.connect()
	for i := 0; i < 30; i++ {
		mustPut(t, dc, fmt.Sprintf("mig-%02d", i), bytes.Repeat([]byte{byte(i)}, 500))
	}
	var snap bytes.Buffer
	if err := donor.Seal(&snap); err != nil {
		t.Fatal(err)
	}

	// Joiner: value-log server, fresh disk, same platform; the donor's
	// counter is ahead so this is the replica-restore path.
	h := newVlogHarness(t, 5, func(cfg *ServerConfig) {
		cfg.Platform = platform
		cfg.Vlog.InlineMax = 1
	})
	tc := h.boot()
	if err := tc.server.RestoreReplica(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("RestoreReplica(full snapshot of a log-less donor): %v", err)
	}
	c := tc.connect()
	for i := 0; i < 30; i++ {
		got, err := c.Get(fmt.Sprintf("mig-%02d", i))
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 500)) {
			t.Fatalf("mig-%02d after migration: %v", i, err)
		}
	}
	// The migrated values are log-durable: crash and replay them back.
	tc.server.Close()
	h.fs.Crash()
	tc2 := h.boot()
	if _, err := tc2.server.ReplayVlog(); err != nil {
		t.Fatalf("ReplayVlog after migration: %v", err)
	}
	c2 := tc2.connect()
	if got, err := c2.Get("mig-07"); err != nil || len(got) != 500 {
		t.Fatalf("mig-07 after migration+crash: %v", err)
	}
}

// bootMemoryOnly starts a server without a value log on the given
// platform (so its snapshots open on any server sharing it), with a
// trusted counter of its own, in the server-encryption placement when
// serverEnc is set.
func bootMemoryOnly(t *testing.T, platform *sgx.Platform, serverEnc bool) *testCluster {
	t.Helper()
	fabric := rdma.NewFabric()
	dev, err := fabric.NewDevice(fmt.Sprintf("memory-only-%d", time.Now().UnixNano()))
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(dev, ServerConfig{
		Platform: platform, RollbackCounter: sgx.AsTrustedCounter(sgx.NewMonotonicCounter()),
		Workers: 4, PollInterval: time.Microsecond, ServerEncryption: serverEnc,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	return &testCluster{t: t, fabric: fabric, platform: platform, server: server, srvDev: dev}
}

// TestSnapshotRestoreMatrix: one snapshot format moves state between
// servers with and without a value log. A log-less server seals what a
// value-log server's repair path streams — a full snapshot — so every
// pairing installs through the same reader: into the pool when the
// joiner has no log (donor pointers ignored), re-homed into the joiner's
// own log when it has one. (Value log → value log is
// TestVlogFullSnapshotForRepair.) A server-encrypted snapshot restores on a
// server of that placement — the storage key is the sealing key's — and is
// refused by one of the other.
func TestSnapshotRestoreMatrix(t *testing.T) {
	for _, m := range []struct {
		name                  string
		donorVlog, joinerVlog bool
		serverEnc             bool
	}{
		{name: "no-vlog to no-vlog"},
		{name: "no-vlog to vlog (migrates)", joinerVlog: true},
		{name: "vlog full to no-vlog", donorVlog: true},
		{name: "server-enc to server-enc", serverEnc: true},
	} {
		t.Run(m.name, func(t *testing.T) {
			platform, err := sgx.NewPlatform()
			if err != nil {
				t.Fatal(err)
			}
			boot := func(withVlog bool, seed int64) *testCluster {
				if !withVlog {
					return bootMemoryOnly(t, platform, m.serverEnc)
				}
				return newVlogHarness(t, seed, func(cfg *ServerConfig) {
					cfg.Platform = platform
					cfg.Vlog.InlineMax = 1
				}).boot()
			}
			donor := boot(m.donorVlog, 41)
			dc := donor.connect()
			for i := 0; i < 20; i++ {
				mustPut(t, dc, fmt.Sprintf("mx-%02d", i), bytes.Repeat([]byte{byte(i + 1)}, 600))
			}
			// Two seals put the donor's counter ahead of the joiner's, so
			// this is the replica-restore path either way.
			var snap bytes.Buffer
			for i := 0; i < 2; i++ {
				snap.Reset()
				if err := donor.server.seal(&snap, true); err != nil {
					t.Fatal(err)
				}
			}
			if m.serverEnc {
				other := bootMemoryOnly(t, platform, false)
				if err := other.server.RestoreReplica(bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrSnapshotFormat) {
					t.Fatalf("Precursor-placement server restored a server-encrypted snapshot: %v", err)
				}
			}
			joiner := boot(m.joinerVlog, 42)
			if err := joiner.server.RestoreReplica(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatalf("RestoreReplica: %v", err)
			}
			jc := joiner.connect()
			for i := 0; i < 20; i++ {
				got, err := jc.Get(fmt.Sprintf("mx-%02d", i))
				if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 600)) {
					t.Fatalf("mx-%02d on the joiner: %d bytes, %v", i, len(got), err)
				}
			}
			if m.joinerVlog {
				if n := joiner.server.Stats().Vlog.Log.AppendedRecords; n < 20 {
					t.Errorf("joiner log took %d appends, want the 20 migrated values", n)
				}
			}
		})
	}
}

// TestVlogFullSnapshotForRepair: with the value log on, the repair
// donor's snapshot carries payloads (a joiner cannot read this node's
// disk), and a value-log joiner re-homes them into its own log.
func TestVlogFullSnapshotForRepair(t *testing.T) {
	h := newVlogHarness(t, 31, func(cfg *ServerConfig) {
		cfg.Vlog.InlineMax = 1
	})
	tc := h.boot()
	c := tc.connect()
	for i := 0; i < 25; i++ {
		mustPut(t, c, fmt.Sprintf("rep-%02d", i), bytes.Repeat([]byte{byte(i + 1)}, 700))
	}
	var full bytes.Buffer
	if err := tc.server.seal(&full, true); err != nil {
		t.Fatal(err)
	}
	if full.Len() < 25*700 {
		t.Fatalf("full snapshot missing payloads: %d bytes", full.Len())
	}

	// Joiner on its own fresh disk, same platform group.
	h2 := newVlogHarness(t, 32, func(cfg *ServerConfig) {
		cfg.Platform = h.platform
		cfg.Vlog.InlineMax = 1
	})
	tc2 := h2.boot()
	if err := tc2.server.RestoreReplica(bytes.NewReader(full.Bytes())); err != nil {
		t.Fatalf("RestoreReplica(v2 full): %v", err)
	}
	c2 := tc2.connect()
	for i := 0; i < 25; i++ {
		got, err := c2.Get(fmt.Sprintf("rep-%02d", i))
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 700)) {
			t.Fatalf("rep-%02d on joiner: %v", i, err)
		}
	}
}

// TestVlogInlineValuesRecover: enclave-inline small values ride in the
// sealed record metadata and come back after a crash, enclave-inline again.
func TestVlogInlineValuesRecover(t *testing.T) {
	h := newVlogHarness(t, 13, func(cfg *ServerConfig) {
		cfg.InlineSmallValues = true
	})
	allInline := func(s *Server, when string) {
		t.Helper()
		for i := 0; i < 30; i++ {
			if e, ok := s.table.Get(fmt.Sprintf("tiny-%02d", i)); !ok || e.inline == nil {
				t.Fatalf("tiny-%02d %s: not enclave-inline (entry present %v)", i, when, ok)
			}
		}
	}
	tc := h.boot()
	c := tc.connect()
	for i := 0; i < 30; i++ {
		mustPut(t, c, fmt.Sprintf("tiny-%02d", i), []byte(fmt.Sprintf("v%02d", i)))
	}
	allInline(tc.server, "before the crash")
	tc.server.Close()
	h.fs.Crash()
	tc2 := h.boot()
	if _, err := tc2.server.ReplayVlog(); err != nil {
		t.Fatal(err)
	}
	allInline(tc2.server, "after replay")
	c2 := tc2.connect()
	for i := 0; i < 30; i++ {
		got, err := c2.Get(fmt.Sprintf("tiny-%02d", i))
		if err != nil || string(got) != fmt.Sprintf("v%02d", i) {
			t.Fatalf("tiny-%02d: %q %v", i, got, err)
		}
	}
}

// TestVlogInlineValuesStayOnDiskWithoutTheMode: an inline value enters the
// enclave only in inline mode, on recovery too. A server restarted without
// the mode replays its inline records disk-only — a get still serves each
// value, from its record's sealed metadata — and restores an index-only
// snapshot the same way. Its full snapshot still carries those values as
// inline; a full snapshot with inline entries, which has no record to fall
// back on, is refused by a server without the mode.
func TestVlogInlineValuesStayOnDiskWithoutTheMode(t *testing.T) {
	h := newVlogHarness(t, 17, func(cfg *ServerConfig) {
		cfg.InlineSmallValues = true
	})
	tc := h.boot()
	c := tc.connect()
	for i := 0; i < 10; i++ {
		mustPut(t, c, fmt.Sprintf("tiny-%02d", i), []byte(fmt.Sprintf("v%02d", i)))
	}
	var full bytes.Buffer
	if _, err := c.FetchSnapshot(&full); err != nil {
		t.Fatal(err)
	}
	index := sealAndCapture(t, tc.server)
	tc.server.Close()
	h.fs.Crash()
	h.cfg.InlineSmallValues = false

	diskOnly := func(tc *testCluster, when string) {
		t.Helper()
		c := tc.connect()
		for i := 0; i < 10; i++ {
			key := fmt.Sprintf("tiny-%02d", i)
			if e, ok := tc.server.table.Get(key); !ok || e.inline != nil {
				t.Fatalf("%s %s: in the enclave without the mode (entry present %v)", key, when, ok)
			}
			if got, err := c.Get(key); err != nil || string(got) != fmt.Sprintf("v%02d", i) {
				t.Fatalf("%s %s: %q %v", key, when, got, err)
			}
		}
	}
	tc = h.boot()
	if _, err := tc.server.ReplayVlog(); err != nil {
		t.Fatal(err)
	}
	diskOnly(tc, "after replay")
	tc.server.Close()
	tc = h.boot()
	if err := tc.server.Restore(bytes.NewReader(index)); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.server.ReplayVlog(); err != nil {
		t.Fatal(err)
	}
	diskOnly(tc, "after an index-only restore")
	// Its full snapshot carries each disk-only inline value as inline,
	// from the record's sealed metadata, for an inline-mode peer to serve.
	var fromDisk bytes.Buffer
	if _, err := tc.connect().FetchSnapshot(&fromDisk); err != nil {
		t.Fatal(err)
	}
	inlinePeer := tc.newPeer(ServerConfig{InlineSmallValues: true})
	if err := inlinePeer.server.RestoreReplica(&fromDisk); err != nil {
		t.Fatal(err)
	}
	cp := inlinePeer.connect()
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("tiny-%02d", i)
		if got, err := cp.Get(key); err != nil || string(got) != fmt.Sprintf("v%02d", i) {
			t.Fatalf("%s on the inline-mode peer: %q %v", key, got, err)
		}
		if e, _ := inlinePeer.server.table.Get(key); e.inline == nil {
			t.Fatalf("%s on the inline-mode peer: not inline", key)
		}
	}
	// A wide-layout peer without the mode.
	peer := tc.newPeer(ServerConfig{HardenedMACs: true})
	if err := peer.server.RestoreReplica(&full); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("RestoreReplica(full snapshot with inline entries) = %v, want ErrSnapshotFormat", err)
	}
}

// TestVlogIndexOnlySnapshotNeedsLog: an index-only snapshot restored
// into a server without a value log must be refused, not half-loaded.
func TestVlogIndexOnlySnapshotNeedsLog(t *testing.T) {
	h := newVlogHarness(t, 41, nil)
	tc := h.boot()
	c := tc.connect()
	mustPut(t, c, "solo", bytes.Repeat([]byte("z"), 500))
	var snap bytes.Buffer
	if err := tc.server.Seal(&snap); err != nil {
		t.Fatal(err)
	}

	plain, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	_ = plain
	// Same platform + counter, but no DataDir: pointers are unreadable.
	fabric := rdma.NewFabric()
	dev, err := fabric.NewDevice("memonly")
	if err != nil {
		t.Fatal(err)
	}
	memSrv, err := NewServer(dev, ServerConfig{
		Platform: h.platform, RollbackCounter: h.counter,
		Workers: 4, PollInterval: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(memSrv.Close)
	if err := memSrv.Restore(bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("index-only into memory-only server: got %v, want ErrSnapshotFormat", err)
	}
}
