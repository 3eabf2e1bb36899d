package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"precursor/internal/audit"
	"precursor/internal/rdma"
	"precursor/internal/wire"
)

// newPeer starts a second server on tc's fabric sharing tc's platform —
// the replica-group deployment shape: same platform and image mean the
// same sealing key, so sealed snapshots transfer between the two.
func (tc *testCluster) newPeer(cfg ServerConfig) *testCluster {
	tc.t.Helper()
	cfg.Platform = tc.platform
	if cfg.PollInterval == 0 {
		cfg.PollInterval = time.Microsecond
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	tc.nDev++
	dev, err := tc.fabric.NewDevice(fmt.Sprintf("server-peer-%d", tc.nDev))
	if err != nil {
		tc.t.Fatal(err)
	}
	server, err := NewServer(dev, cfg)
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.t.Cleanup(server.Close)
	// The peer shares tc's fabric but counts devices independently; offset
	// its counter so client device names never collide with tc's.
	return &testCluster{t: tc.t, fabric: tc.fabric, platform: tc.platform, server: server, srvDev: dev, nDev: 1000 * tc.nDev}
}

// preload writes n keys of size-byte values to tc's server, in frames of
// about 16 KiB.
func (tc *testCluster) preload(n, size int) {
	tc.t.Helper()
	c := tc.connect()
	step := max(1, 16<<10/(size+64))
	for base := 0; base < n; base += step {
		var ops []BatchOp
		for i := base; i < min(base+step, n); i++ {
			ops = append(ops, BatchOp{Kind: BatchPut, Key: fmt.Sprintf("k%05d", i), Value: bytes.Repeat([]byte{byte(i)}, size)})
		}
		if _, err := c.Batch(ops); err != nil {
			tc.t.Fatal(err)
		}
	}
}

// sealedSnapshot preloads n keys of 512 B into tc's server and fetches its
// sealed snapshot.
func (tc *testCluster) sealedSnapshot(n int) []byte {
	tc.t.Helper()
	tc.preload(n, 512)
	var sealed bytes.Buffer
	if _, err := tc.connect().FetchSnapshot(&sealed); err != nil {
		tc.t.Fatalf("FetchSnapshot: %v", err)
	}
	return sealed.Bytes()
}

// TestRepairSnapshotDeltaTransfer is the end-to-end anti-entropy path:
// a donor's sealed snapshot is ferried (opaque to the client) into a
// peer replica, the donor's post-snapshot delta is replayed through the
// ordinary data path, and the peer then serves the donor's data.
func TestRepairSnapshotDeltaTransfer(t *testing.T) {
	donor := newCluster(t, ServerConfig{})
	target := donor.newPeer(ServerConfig{})
	cd := donor.connect()

	for i := 0; i < 40; i++ {
		if err := cd.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("value-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}

	rd := donor.connect()
	rt := target.connect()

	var sealed bytes.Buffer
	gen, err := rd.FetchSnapshot(&sealed)
	if err != nil {
		t.Fatalf("FetchSnapshot: %v", err)
	}
	if gen == 0 {
		t.Fatalf("snapshot generation = 0, want the seal's counter")
	}
	entries, err := rt.PushSnapshot(bytes.NewReader(sealed.Bytes()))
	if err != nil {
		t.Fatalf("PushSnapshot: %v", err)
	}
	if entries != 40 {
		t.Fatalf("entries after push = %d, want 40", entries)
	}

	// Dirty the donor after the snapshot: two updates and a delete.
	if err := cd.Put("k00", []byte("updated-00")); err != nil {
		t.Fatal(err)
	}
	if err := cd.Put("extra", []byte("post-snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := cd.Delete("k01"); err != nil {
		t.Fatal(err)
	}
	delta, err := rd.DeltaSince(gen)
	if err != nil {
		t.Fatalf("DeltaSince(%d): %v", gen, err)
	}
	want := []string{"extra", "k00", "k01"}
	sort.Strings(delta)
	if fmt.Sprint(delta) != fmt.Sprint(want) {
		t.Fatalf("delta = %v, want %v", delta, want)
	}

	// Replay the delta through the data path: donor read → target
	// write/delete.
	ct := target.connect()
	replayDelta(t, cd, ct, delta)

	// The target now serves the donor's exact state.
	for i := 2; i < 40; i++ {
		key := fmt.Sprintf("k%02d", i)
		got, err := ct.Get(key)
		if err != nil || string(got) != fmt.Sprintf("value-%02d", i) {
			t.Fatalf("target %s = %q, %v", key, got, err)
		}
	}
	if got, err := ct.Get("k00"); err != nil || string(got) != "updated-00" {
		t.Fatalf("target k00 = %q, %v", got, err)
	}
	if got, err := ct.Get("extra"); err != nil || string(got) != "post-snapshot" {
		t.Fatalf("target extra = %q, %v", got, err)
	}
	if _, err := ct.Get("k01"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("target k01: %v, want ErrNotFound", err)
	}
}

// TestRepairStaleGeneration: a delta query against an outdated seal
// generation must fail typed, telling the repairing client to refetch.
func TestRepairStaleGeneration(t *testing.T) {
	donor := newCluster(t, ServerConfig{})
	cd := donor.connect()
	if err := cd.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	rd := donor.connect()
	var sealed bytes.Buffer
	gen1, err := rd.FetchSnapshot(&sealed)
	if err != nil {
		t.Fatal(err)
	}
	// A second seal supersedes gen1.
	sealed.Reset()
	gen2, err := rd.FetchSnapshot(&sealed)
	if err != nil || gen2 != gen1+1 {
		t.Fatalf("second FetchSnapshot = %d, %v; want generation %d", gen2, err, gen1+1)
	}
	if _, err := rd.DeltaSince(gen1); !errors.Is(err, ErrSealGeneration) {
		t.Fatalf("DeltaSince(stale) = %v, want ErrSealGeneration", err)
	}
}

// TestRepairRollbackRejected: pushing a snapshot older than the target's
// trusted counter must be refused — catch-up may only move forward.
func TestRepairRollbackRejected(t *testing.T) {
	donor := newCluster(t, ServerConfig{})
	target := donor.newPeer(ServerConfig{})

	// The target seals twice: its trusted counter is now ahead of any
	// first-generation donor snapshot.
	var scratch bytes.Buffer
	if err := target.server.Seal(&scratch); err != nil {
		t.Fatal(err)
	}
	scratch.Reset()
	if err := target.server.Seal(&scratch); err != nil {
		t.Fatal(err)
	}

	rd := donor.connect()
	rt := target.connect()
	var sealed bytes.Buffer
	if _, err := rd.FetchSnapshot(&sealed); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.PushSnapshot(bytes.NewReader(sealed.Bytes())); !errors.Is(err, ErrSnapshotRollback) {
		t.Fatalf("PushSnapshot(older) = %v, want ErrSnapshotRollback", err)
	}
}

// targetUnchanged fails t unless target still holds exactly its one key
// "own" at trusted counter 0.
func targetUnchanged(t *testing.T, target *testCluster, ct *Client) {
	t.Helper()
	if n, c := target.server.Stats().Entries, target.server.RollbackCounter(); n != 1 || c != 0 {
		t.Fatalf("target holds %d entries at counter %d, want 1 at 0", n, c)
	}
	if v, err := ct.Get("own"); err != nil || string(v) != "kept" {
		t.Fatalf("target's own key = %q, %v", v, err)
	}
}

// TestRepairPushTamperRefused: the client ferrying a snapshot can neither
// alter nor cut it. A flipped byte, two chunks swapped and a chunk left
// out each end in a typed error and one repair-anomaly audit record, and
// the target's table and trusted counter stay as they were.
func TestRepairPushTamperRefused(t *testing.T) {
	donor := newCluster(t, ServerConfig{})
	log := audit.New(0)
	target := donor.newPeer(ServerConfig{Audit: log})
	sealed := donor.sealedSnapshot(150)
	ct := target.connect()
	mustPut(t, ct, "own", []byte("kept"))

	const span = 4096 // well inside the sealed payload, which starts at byte 32
	flipped := slices.Clone(sealed)
	flipped[len(flipped)/2] ^= 0x01
	swapped := slices.Clone(sealed)
	copy(swapped[span:], sealed[2*span:3*span])
	copy(swapped[2*span:], sealed[span:2*span])
	dropped := append(slices.Clone(sealed[:span]), sealed[2*span:]...)
	for _, tt := range []struct {
		name string
		blob []byte
		want error
	}{
		{"flipped byte", flipped, ErrSnapshotAuth},
		{"chunks swapped", swapped, ErrSnapshotAuth},
		{"chunk dropped", dropped, ErrSnapshotFormat},
	} {
		anomalies := log.CountsByKind()[audit.KindRepairAnomaly]
		if _, err := ct.PushSnapshot(bytes.NewReader(tt.blob)); !errors.Is(err, tt.want) {
			t.Fatalf("%s: PushSnapshot = %v, want %v", tt.name, err, tt.want)
		}
		if got := log.CountsByKind()[audit.KindRepairAnomaly]; got != anomalies+1 {
			t.Fatalf("%s: %d repair-anomaly records, want %d", tt.name, got, anomalies+1)
		}
		targetUnchanged(t, target, ct)
	}
	if log.CountsByKind()[audit.KindSnapshotAuth] != 2 {
		t.Fatalf("audit counts %v, want 2 snapshot_auth records", log.CountsByKind())
	}
	// The untouched blob still commits.
	if n, err := ct.PushSnapshot(bytes.NewReader(sealed)); err != nil || n != 150 {
		t.Fatalf("PushSnapshot(intact) = %d, %v", n, err)
	}
}

// TestRepairOutOfStepRefused: a repair op whose offset or total disagrees
// with what the session has sent or received — a chunk dropped in flight
// included — gets a sealed BAD_REQUEST at once, and nothing is restored.
func TestRepairOutOfStepRefused(t *testing.T) {
	donor := newCluster(t, ServerConfig{})
	log := audit.New(0)
	target := donor.newPeer(ServerConfig{Audit: log})
	sealed := donor.sealedSnapshot(60)
	total := uint64(len(sealed))
	ct := target.connect()
	mustPut(t, ct, "own", []byte("kept"))

	for _, st := range []struct {
		name  string
		op    wire.Opcode
		a, b  uint64
		chunk []byte
	}{
		{"restore resumed with none begun", wire.OpRestore, 100, total, sealed[100:200]},
		{"restore total past the bound", wire.OpRestore, 0, maxSnapshot + 1, sealed[:100]},
		{"restore chunk past its total", wire.OpRestore, 0, 10, sealed[:100]},
		{"restore begun", wire.OpRestore, 0, total, sealed[:1000]},
		{"next chunk skips one dropped in flight", wire.OpRestore, 2000, total, sealed[2000:3000]},
		{"snapshot resumed with none pinned", wire.OpSnapshot, 100, 0, nil},
		{"delta resumed with none listed", wire.OpDelta, 0, 5, nil},
	} {
		_, err := ct.repairOp(st.op, st.a, st.b, st.chunk)
		if st.name == "restore begun" {
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			continue
		}
		if !errors.Is(err, ErrBadResponse) || errors.Is(err, ErrUnconfirmed) {
			t.Fatalf("%s: %v, want a sealed BAD_REQUEST (plain ErrBadResponse)", st.name, err)
		}
	}
	if got := log.CountsByKind()[audit.KindRepairAnomaly]; got != 6 {
		t.Fatalf("%d repair-anomaly records, want 6", got)
	}
	targetUnchanged(t, target, ct)
}

// TestRepairReplayedFrameRefused: a repair frame replayed under a spent
// oid is refused by the session's replay window like any other frame —
// it does not seal again.
func TestRepairReplayedFrameRefused(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	c := tc.connect()
	mustPut(t, c, "k", []byte("v"))
	if _, err := c.FetchSnapshot(io.Discard); err != nil {
		t.Fatal(err)
	}
	seals := tc.server.SealsTotal()
	c.mu.Lock()
	oid := c.oid // already consumed by the server
	c.mu.Unlock()
	inject(t, c, sealFrame(t, c, oid, wire.BatchOp{Op: wire.OpSnapshot, InlineValue: make([]byte, 16)}))
	awaitStat(t, tc.server, "replay", func(st ServerStats) uint64 { return st.Replays })
	if got := tc.server.SealsTotal(); got != seals {
		t.Fatalf("replayed snapshot op sealed: %d seals, want %d", got, seals)
	}
	if _, err := c.FetchSnapshot(io.Discard); err != nil {
		t.Fatalf("fetch after the replay: %v", err)
	}
}

// TestRepairClosedSessionIsReleased: a client that hangs up mid-fetch
// leaves nothing behind. Its session ends at the trusted thread's next
// sweep, which frees its MaxClients slot and drops the dirty-key set its
// snapshot armed, and the snapshot pinned on it becomes garbage.
func TestRepairClosedSessionIsReleased(t *testing.T) {
	tc := newCluster(t, ServerConfig{MaxClients: 2})
	tc.preload(200, 512) // one session; a sealed snapshot of several chunks
	c := tc.connect()
	if _, err := c.repairOp(wire.OpSnapshot, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	func() {
		tc.server.mu.Lock()
		sess := tc.server.sessions[c.ID()]
		tc.server.mu.Unlock()
		if sess == nil || sess.repair == nil || sess.repair.snap == nil {
			t.Fatal("no snapshot pinned on the session mid-fetch")
		}
		if n := tc.server.dirty.armed.Load(); n != 1 {
			t.Fatalf("%d dirty-key sets armed mid-fetch, want 1", n)
		}
		runtime.SetFinalizer(sess.repair, func(*repairState) { close(freed) })
	}()
	_ = c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for tc.server.Stats().Clients != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("closed session still counted: %d sessions", tc.server.Stats().Clients)
		}
		time.Sleep(time.Millisecond)
	}
	tc.connect() // the second of MaxClients' two slots is free again
	tc.server.dirty.mu.Lock()
	sets := len(tc.server.dirty.bySession)
	tc.server.dirty.mu.Unlock()
	if n := tc.server.dirty.armed.Load(); n != 0 || sets != 0 {
		t.Fatalf("the closed session left %d dirty-key sets registered (%d armed)", sets, n)
	}
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the closed session's pinned snapshot is still reachable")
		}
	}
}

// TestRepairShedStepIsResent: a draining donor sheds a repair frame like
// any write, and a shed op was not applied, so the client sends the same
// step again after the hint; the fetch completes once the drain lifts.
func TestRepairShedStepIsResent(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	tc.preload(100, 512)
	c := tc.connect()
	tc.server.SetDraining(true)
	fetched := make(chan error, 1)
	go func() {
		_, err := c.FetchSnapshot(io.Discard)
		fetched <- err
	}()
	awaitStat(t, tc.server, "shed write", func(st ServerStats) uint64 { return st.ShedWrites })
	tc.server.SetDraining(false)
	if err := <-fetched; err != nil {
		t.Fatalf("fetch across a drain: %v", err)
	}
	if seals := tc.server.SealsTotal(); seals != 1 {
		t.Fatalf("%d seals, want 1: a shed op must not apply", seals)
	}
}

// flipConn flips one byte in the middle of the first write posted through
// it that is longer than min: an on-path adversary's hand on a frame.
type flipConn struct {
	rdma.Conn
	min     int
	flipped atomic.Bool
}

func (c *flipConn) PostWrite(wrID uint64, rkey uint32, off uint64, data []byte, signaled bool) error {
	if len(data) > c.min && c.flipped.CompareAndSwap(false, true) {
		data = slices.Clone(data)
		data[len(data)/2] ^= 0x01
	}
	return c.Conn.PostWrite(wrID, rkey, off, data, signaled)
}

// TestRepairFetchedChunkTamperedInFlight: a fetched chunk's bytes ride the
// reply's untrusted payload region, so the fetching client cannot tell one
// altered in flight — the target's commit does, and refuses the snapshot.
func TestRepairFetchedChunkTamperedInFlight(t *testing.T) {
	donor := newCluster(t, ServerConfig{})
	target := donor.newPeer(ServerConfig{})
	donor.preload(150, 512)
	flip := &flipConn{min: 8192}
	donor.wrapSrv = func(c rdma.Conn) rdma.Conn { flip.Conn = c; return flip }
	var sealed bytes.Buffer
	if _, err := donor.connect().FetchSnapshot(&sealed); err != nil {
		t.Fatal(err)
	}
	if !flip.flipped.Load() {
		t.Fatal("no chunk reply crossed the wrapped connection")
	}
	ct := target.connect()
	mustPut(t, ct, "own", []byte("kept"))
	if _, err := ct.PushSnapshot(&sealed); !errors.Is(err, ErrSnapshotAuth) {
		t.Fatalf("PushSnapshot(tampered in flight) = %v, want ErrSnapshotAuth", err)
	}
	targetUnchanged(t, target, ct)
}

// countingConn counts the bytes posted through one end of a queue pair.
type countingConn struct {
	rdma.Conn
	n *atomic.Int64
}

func (c countingConn) PostWrite(wrID uint64, rkey uint32, off uint64, data []byte, signaled bool) error {
	c.n.Add(int64(len(data)))
	return c.Conn.PostWrite(wrID, rkey, off, data, signaled)
}

func (c countingConn) PostWriteImm(wrID uint64, rkey uint32, off uint64, data []byte, imm uint32, signaled bool) error {
	c.n.Add(int64(len(data)))
	return c.Conn.PostWriteImm(wrID, rkey, off, data, imm, signaled)
}

func (c countingConn) PostSend(wrID uint64, data []byte, signaled, inline bool) error {
	c.n.Add(int64(len(data)))
	return c.Conn.PostSend(wrID, data, signaled, inline)
}

// TestRepairBytesPerSnapshotByte counts the bytes both ends of a repair
// connection post, per sealed snapshot byte, for one fetch leg (donor) and
// one push leg (target), attestation excluded: chunks cross as they are,
// so each leg costs only its frames' headers, control seals and credits.
func TestRepairBytesPerSnapshotByte(t *testing.T) {
	donor := newCluster(t, ServerConfig{})
	target := donor.newPeer(ServerConfig{})
	donor.preload(400, 1024)
	var fetched, pushed atomic.Int64
	count := func(n *atomic.Int64) func(rdma.Conn) rdma.Conn {
		return func(c rdma.Conn) rdma.Conn { return countingConn{c, n} }
	}
	donor.wrapSrv, target.wrapSrv = count(&fetched), count(&pushed)
	rd := donor.connect(func(cfg *ClientConfig) { cfg.Conn = countingConn{cfg.Conn, &fetched} })
	rt := target.connect(func(cfg *ClientConfig) { cfg.Conn = countingConn{cfg.Conn, &pushed} })
	fetched.Store(0)
	pushed.Store(0)

	var sealed bytes.Buffer
	start := time.Now()
	if _, err := rd.FetchSnapshot(&sealed); err != nil {
		t.Fatal(err)
	}
	if n, err := rt.PushSnapshot(bytes.NewReader(sealed.Bytes())); err != nil || n != 400 {
		t.Fatalf("PushSnapshot = %d, %v", n, err)
	}
	took := time.Since(start)
	size := float64(sealed.Len())
	fetch, push := float64(fetched.Load())/size, float64(pushed.Load())/size
	t.Logf("sealed snapshot %d B, fetched and pushed in %v; bytes posted per snapshot byte: fetch %.4f, push %.4f",
		sealed.Len(), took, fetch, push)
	if fetch > 1.05 || push > 1.05 {
		t.Fatalf("repair posts fetch %.4f / push %.4f bytes per snapshot byte, budget 1.05", fetch, push)
	}
}

// BenchmarkRepairSealPause measures what a fetch's seal, which runs on the
// donor's trusted thread, costs the other sessions that thread polls. Each
// iteration is one fetch of a 20 000-key snapshot beside a session that
// gets in a loop; it reports the seal's duration and the longest get:
//
//	go test -run '^$' -bench BenchmarkRepairSealPause -benchtime 5x ./internal/core/
func BenchmarkRepairSealPause(b *testing.B) {
	donor := newCluster(b, ServerConfig{Workers: 1})
	donor.preload(20000, 100)
	other := donor.connect()
	rd := donor.connect()
	var longest atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			start := time.Now()
			if _, err := other.Get("k00000"); err != nil {
				b.Error(err)
				return
			}
			if d := int64(time.Since(start)); d > longest.Load() {
				longest.Store(d)
			}
		}
	}()
	var seal time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.FetchSnapshot(io.Discard); err != nil {
			b.Fatal(err)
		}
		seal = max(seal, donor.server.LastSealDuration())
	}
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(float64(seal)/1e6, "seal-ms")
	b.ReportMetric(float64(longest.Load())/1e6, "longest-get-ms")
}

// TestDeltaLogSemantics covers a repair session's dirty-key set through
// the repair ops: with no repair in flight a write takes no lock and
// records nothing; a snapshot arms the session's set; a delta of another
// generation fails typed and ends the set; a restore ends every set; past
// the cap the delta is truncated, never silently short.
func TestDeltaLogSemantics(t *testing.T) {
	tc := newCluster(t, ServerConfig{})
	s := tc.server
	registered := func() int {
		s.dirty.mu.Lock()
		defer s.dirty.mu.Unlock()
		return len(s.dirty.bySession)
	}

	// Idle: a write holding the lock would wait for the test to let it go.
	s.dirty.mu.Lock()
	idle := make(chan float64)
	go func() { idle <- testing.AllocsPerRun(100, func() { s.recordDelta("idle") }) }()
	select {
	case n := <-idle:
		s.dirty.mu.Unlock()
		if n != 0 || s.dirty.bySession != nil {
			t.Fatalf("idle recordDelta: %v allocs per call, sets %v", n, s.dirty.bySession)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recordDelta with no repair in flight waits for the lock")
	}

	c := tc.connect()
	gen, err := c.FetchSnapshot(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	s.recordDelta("a")
	if _, err := c.DeltaSince(gen + 1); !errors.Is(err, ErrSealGeneration) {
		t.Fatalf("DeltaSince(wrong gen): %v", err)
	}
	// The listing ended the session's set, the stale one included.
	if _, err := c.DeltaSince(gen); !errors.Is(err, ErrSealGeneration) || registered() != 0 {
		t.Fatalf("DeltaSince after the set was taken: %v, %d sets", err, registered())
	}
	if gen, err = c.FetchSnapshot(io.Discard); err != nil {
		t.Fatal(err)
	}
	s.recordDelta("b")
	if keys, err := c.DeltaSince(gen); err != nil || fmt.Sprint(keys) != "[b]" {
		t.Fatalf("DeltaSince(%d) = %v, %v", gen, keys, err)
	}

	// No snapshot taken before a restore describes the restored state.
	var snap bytes.Buffer
	if gen, err = c.FetchSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.connect().PushSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeltaSince(gen); !errors.Is(err, ErrSealGeneration) {
		t.Fatalf("DeltaSince across a restore: %v", err)
	}
	// A restore outside a repair session ends every set as well.
	if gen, err = c.FetchSnapshot(io.Discard); err != nil {
		t.Fatal(err)
	}
	snap.Reset()
	if err := s.Seal(&snap); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeltaSince(gen); !errors.Is(err, ErrSealGeneration) || registered() != 0 {
		t.Fatalf("DeltaSince across a direct restore: %v, %d sets", err, registered())
	}

	// Overflow: past the cap the delta is truncated, never silently short.
	if gen, err = c.FetchSnapshot(io.Discard); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= deltaLogCap; i++ {
		s.recordDelta(fmt.Sprintf("key-%d", i))
	}
	if _, err := c.DeltaSince(gen); !errors.Is(err, ErrDeltaTruncated) {
		t.Fatalf("DeltaSince(overflow): %v", err)
	}
	if n := registered(); n != 0 || s.dirty.armed.Load() != 0 {
		t.Fatalf("%d sets registered (%d armed) after the listing", n, s.dirty.armed.Load())
	}
}

// replayDelta copies each key's current state from the donor session to
// the target's: what the cluster client's repair orchestration does.
func replayDelta(t *testing.T, from, to *Client, keys []string) {
	t.Helper()
	for _, key := range keys {
		v, err := from.Get(key)
		switch {
		case err == nil:
			if err := to.Put(key, v); err != nil {
				t.Fatalf("replay put %q: %v", key, err)
			}
		case errors.Is(err, ErrNotFound):
			if err := to.Delete(key); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatalf("replay delete %q: %v", key, err)
			}
		default:
			t.Fatalf("replay read %q: %v", key, err)
		}
	}
}

// sameState fails t unless target holds donor's keys, each with donor's
// value.
func sameState(t *testing.T, donor, target *testCluster, cd, ct *Client) {
	t.Helper()
	keysOf := func(tc *testCluster) []string {
		var keys []string
		tc.server.table.Range(func(k string, _ baseEntry, _ uint32) bool {
			keys = append(keys, k)
			return true
		})
		sort.Strings(keys)
		return keys
	}
	want := keysOf(donor)
	if got := keysOf(target); !slices.Equal(got, want) {
		t.Fatalf("target holds keys %q, donor %q", got, want)
	}
	for _, key := range want {
		dv, derr := cd.Get(key)
		tv, terr := ct.Get(key)
		if derr != nil || terr != nil || !bytes.Equal(dv, tv) {
			t.Fatalf("%s: donor %q, %v; target %q, %v", key, dv, derr, tv, terr)
		}
	}
}

// TestRepairDeltaSurvivesDonorSeal: a delta is the repair session's own,
// so a donor seal between its FetchSnapshot and its DeltaSince — a
// server run with -seal-interval seals whenever its timer fires — leaves
// the delta complete.
func TestRepairDeltaSurvivesDonorSeal(t *testing.T) {
	donor := newCluster(t, ServerConfig{})
	cd := donor.connect()
	mustPut(t, cd, "before", []byte("v0"))
	rd := donor.connect()
	gen, err := rd.FetchSnapshot(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, cd, "a", []byte("v1"))
	if err := donor.server.Seal(io.Discard); err != nil {
		t.Fatal(err)
	}
	mustPut(t, cd, "b", []byte("v2"))
	if err := cd.Delete("before"); err != nil {
		t.Fatal(err)
	}
	if keys, err := rd.DeltaSince(gen); err != nil || fmt.Sprint(keys) != "[a b before]" {
		t.Fatalf("DeltaSince(%d) across a donor seal = %v, %v; want [a b before]", gen, keys, err)
	}
}

// TestRepairTwoSessionsOneDonor: two sessions repair two targets from one
// donor at once, their fetches, pushes and delta listings interleaved.
// Each delta is its own session's, so the second fetch's seal leaves the
// first delta whole, and both targets converge on the donor.
func TestRepairTwoSessionsOneDonor(t *testing.T) {
	donor := newCluster(t, ServerConfig{})
	targets := []*testCluster{donor.newPeer(ServerConfig{}), donor.newPeer(ServerConfig{})}
	donor.preload(40, 64)
	cd := donor.connect()
	rd := []*Client{donor.connect(), donor.connect()}
	sealed := make([]bytes.Buffer, 2)
	gens := make([]uint64, 2)
	var err error
	if gens[0], err = rd[0].FetchSnapshot(&sealed[0]); err != nil {
		t.Fatal(err)
	}
	mustPut(t, cd, "after-first", []byte("1"))
	if gens[1], err = rd[1].FetchSnapshot(&sealed[1]); err != nil {
		t.Fatal(err)
	}
	mustPut(t, cd, "after-second", []byte("2"))
	if err := cd.Delete("k00003"); err != nil {
		t.Fatal(err)
	}
	ct := make([]*Client, 2)
	for i, target := range targets {
		ct[i] = target.connect()
		if _, err := ct[i].PushSnapshot(&sealed[i]); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	mustPut(t, cd, "k00005", []byte("after both pushes"))
	for i := range targets {
		keys, err := rd[i].DeltaSince(gens[i])
		if err != nil {
			t.Fatalf("session %d: DeltaSince(%d): %v", i, gens[i], err)
		}
		replayDelta(t, cd, ct[i], keys)
	}
	for i, target := range targets {
		sameState(t, donor, target, cd, ct[i])
	}
}

// TestRepairConvergesUnderConcurrentWrites: writers put and delete on the
// donor while a repair session fetches its snapshot, while the target
// adopts it and while a periodic seal runs on the donor. After the
// session's delta is replayed the target equals the donor, key by key: a
// write racing the snapshot is in the snapshot, the delta or both, never
// in neither. Run with -race -count=20.
func TestRepairConvergesUnderConcurrentWrites(t *testing.T) {
	donor := newCluster(t, ServerConfig{Workers: 2})
	target := donor.newPeer(ServerConfig{Workers: 2})
	donor.preload(64, 32)
	var ops atomic.Int64
	stop := make(chan struct{})
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		c := donor.connect()
		go func() {
			for i := 0; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				key := fmt.Sprintf("k%05d", (i*7+w*31)%96)
				var err error
				if i%5 == 4 {
					if err = c.Delete(key); errors.Is(err, ErrNotFound) {
						err = nil
					}
				} else {
					err = c.Put(key, []byte(fmt.Sprintf("w%d-%d", w, i)))
				}
				if err != nil {
					errs <- err
					return
				}
				ops.Add(1)
			}
		}()
	}
	await := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ops.Load() < n; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("writers made %d ops, want %d", ops.Load(), n)
			}
		}
	}
	await(20)
	rd := donor.connect()
	var sealed bytes.Buffer
	gen, err := rd.FetchSnapshot(&sealed)
	if err != nil {
		t.Fatal(err)
	}
	ct := target.connect()
	if _, err := ct.PushSnapshot(&sealed); err != nil {
		t.Fatal(err)
	}
	if err := donor.server.Seal(io.Discard); err != nil {
		t.Fatal(err)
	}
	await(ops.Load() + 20)
	close(stop)
	for w := 0; w < 2; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("writer: %v", err)
		}
	}
	keys, err := rd.DeltaSince(gen)
	if err != nil {
		t.Fatalf("DeltaSince(%d): %v", gen, err)
	}
	cd := donor.connect()
	replayDelta(t, cd, ct, keys)
	sameState(t, donor, target, cd, ct)
}
