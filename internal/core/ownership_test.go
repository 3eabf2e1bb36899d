package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"precursor/internal/faultfab"
	"precursor/internal/obs"
	"precursor/internal/rdma"
	"precursor/internal/vlog"
)

// Buffer-ownership tests for the scratch-backed op path: the client's
// per-connection buffers and the server's recycled reply frames are
// reused on every operation, so anything that escapes them — a value
// handed to the caller, a frame still being written to a ring — would
// show up as changed bytes, a wrong value or a reply that fails to
// authenticate. Run with -race -count=10.

// stamped builds a self-describing value: writer, key, version, then
// filler derived from all three, n bytes in total (at least 12).
func stamped(writer, key, version uint32, n int) []byte {
	v := make([]byte, max(n, 12))
	binary.LittleEndian.PutUint32(v[0:], writer)
	binary.LittleEndian.PutUint32(v[4:], key)
	binary.LittleEndian.PutUint32(v[8:], version)
	for i := 12; i < len(v); i++ {
		v[i] = byte(writer*131 + key*31 + version*7 + uint32(i))
	}
	return v
}

// TestGetResultsNeverAliasScratch retains 1 000 Get results while 10 000
// further mixed operations reuse the connection's scratch: every retained
// value must stay byte-identical. The inline mode matters as much as the
// base one — there the value arrives inside the opened control plaintext,
// which is scratch.
func TestGetResultsNeverAliasScratch(t *testing.T) {
	modes := []struct {
		name string
		srv  ServerConfig
	}{
		{name: "base"},
		{name: "hardened", srv: ServerConfig{HardenedMACs: true}},
		{name: "inline", srv: ServerConfig{InlineSmallValues: true}},
	}
	retain, churn := 1000, 10000
	if testing.Short() {
		retain, churn = 200, 2000
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			tc := newCluster(t, m.srv)
			c := tc.connect()
			// Sizes straddle the inline threshold and the cipher's block.
			size := func(i int) int { return 12 + (i*37)%200 }
			key := func(i int) string { return fmt.Sprintf("own-%04d", i) }
			for i := 0; i < retain; i++ {
				if err := c.Put(key(i), stamped(1, uint32(i), 0, size(i))); err != nil {
					t.Fatal(err)
				}
			}
			kept := make([][]byte, retain)
			for i := range kept {
				v, err := c.Get(key(i))
				if err != nil {
					t.Fatal(err)
				}
				kept[i] = v
			}
			for i := 0; i < churn; i++ {
				k := uint32(retain + i%97)
				name := fmt.Sprintf("churn-%d", k)
				var err error
				switch i % 5 {
				case 0, 1:
					err = c.Put(name, stamped(2, k, uint32(i), size(i)))
				case 2, 3:
					_, err = c.Get(name)
				case 4:
					_, err = c.Batch([]BatchOp{
						{Kind: BatchPut, Key: name, Value: stamped(2, k, uint32(i), size(i))},
						{Kind: BatchGet, Key: name},
						{Kind: BatchGet, Key: key(i % retain)},
					})
				}
				if err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatalf("churn op %d: %v", i, err)
				}
			}
			for i, v := range kept {
				if want := stamped(1, uint32(i), 0, size(i)); !bytes.Equal(v, want) {
					t.Fatalf("retained value %d changed under later operations:\n got %x\nwant %x", i, v, want)
				}
			}
		})
	}
}

// TestSingleOpPollSkipsStaleReplies makes a read's late reply arrive
// during the poll of its retry: the server's replies are held back until
// the read's first attempt has timed out and its second has been applied,
// and a second connection overwrites the key in between. Released in
// order, the first attempt's reply — authenticated, carrying the old
// value, for an oid no longer awaited — is opened on the scratch the
// retry's own reply is about to use. It must be counted stale and skipped,
// and the read must return the new value: for a Get and a Batch of gets,
// also when traced (every reply seals under the same AD, and only its
// sealed oid echo tells the frames apart).
func TestSingleOpPollSkipsStaleReplies(t *testing.T) {
	const slice = 100 * time.Millisecond // each of a read's two attempts
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			tc := newCluster(t, ServerConfig{})
			w := tc.connect()
			replies := faultfab.New(faultfab.Config{Seed: 1})
			tc.wrapSrv = func(c rdma.Conn) rdma.Conn { return replies.Wrap(c, faultfab.S2C, "server") }
			t.Cleanup(func() { replies.Heal(faultfab.S2C) })
			opts := []func(*ClientConfig){func(cfg *ClientConfig) { cfg.ReadRetries = 1 }}
			if traced {
				tr := obs.New(obs.Config{Side: obs.SideClient, Ring: 16})
				opts = append(opts, func(cfg *ClientConfig) { cfg.Tracer = tr })
			}
			c := tc.connect(opts...)
			rounds := 6
			if testing.Short() {
				rounds = 2
			}
			for r := 0; r < rounds; r++ {
				keys := []string{"k0", "k1"}[:1+r%2] // a Get, then a Batch of two gets
				value := func(version uint32, k int) []byte { return stamped(1, uint32(k), version, 40+int(version)*97+k*260) }
				for k, key := range keys {
					if err := w.Put(key, value(uint32(2*r), k)); err != nil {
						t.Fatal(err)
					}
				}
				gets := tc.server.Stats().Gets
				applied := func(n int) {
					for deadline := time.Now().Add(2 * slice); tc.server.Stats().Gets < gets+uint64(n*len(keys)); time.Sleep(100 * time.Microsecond) {
						if time.Now().After(deadline) {
							t.Fatalf("round %d: attempt %d never applied", r, n)
						}
					}
				}
				replies.Partition(faultfab.S2C)
				start := time.Now()
				ctx, cancel := context.WithDeadline(context.Background(), start.Add(2*slice))
				got := make(chan []BatchResult, 1)
				go func() {
					ops := make([]BatchOp, len(keys))
					for k, key := range keys {
						ops[k] = BatchOp{Kind: BatchGet, Key: key}
					}
					if len(ops) == 1 {
						v, err := c.GetContext(ctx, keys[0])
						got <- []BatchResult{{Value: v, Err: err}}
						return
					}
					res, _ := c.BatchContext(ctx, ops)
					got <- res
				}()
				applied(1)
				for k, key := range keys {
					if err := w.Put(key, value(uint32(2*r+1), k)); err != nil {
						t.Fatal(err)
					}
				}
				// The retry is sent once the first attempt's slice is over,
				// no earlier than start+slice: a put that returned before
				// then was applied before the retry read the key.
				fresh := time.Since(start) < slice
				applied(2)
				replies.Heal(faultfab.S2C)
				res := <-got
				cancel()
				for k := range keys {
					g := res[k]
					if g.Err != nil {
						t.Fatalf("round %d get %d: %v", r, k, g.Err)
					}
					if !bytes.Equal(g.Value, value(uint32(2*r+1), k)) && (fresh || !bytes.Equal(g.Value, value(uint32(2*r), k))) {
						t.Fatalf("round %d get %d = %x, want %x", r, k, g.Value, value(uint32(2*r+1), k))
					}
				}
			}
			st := c.StatsStruct()
			if st.StaleFrames != uint64(rounds) {
				t.Errorf("%d stale replies skipped, want one per round (%d)", st.StaleFrames, rounds)
			}
			if st.BadFrames != 0 || st.IntegrityFailures != 0 || st.UnauthStatuses != 0 {
				t.Fatalf("clean run counted bad=%d integrity=%d unauth=%d frames",
					st.BadFrames, st.IntegrityFailures, st.UnauthStatuses)
			}
		})
	}
}

// TestReplyFramesRecycledOnlyAfterRingWrite runs 4 clients against 2
// trusted threads (and 2 senders) with every value version-stamped and
// every read verified. A reply frame handed back to the free list before
// its ring write had copied it would be overwritten by another session's
// reply: the victim sees a frame that fails authentication (BadFrames) or
// a value that is not its own.
func TestReplyFramesRecycledOnlyAfterRingWrite(t *testing.T) {
	tc := newCluster(t, ServerConfig{Workers: 2})
	const clients = 4
	ops := 3000
	if testing.Short() {
		ops = 500
	}
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		c := tc.connect()
		wg.Add(1)
		go func(w uint32) {
			defer wg.Done()
			const keys = 16
			version := make([]uint32, keys)
			size := func(k, v uint32) int { return 12 + int(k*53+v*17)%1500 }
			for i := 0; i < ops; i++ {
				k := uint32(i % keys)
				name := fmt.Sprintf("w%d-k%d", w, k)
				if i%3 != 2 || version[k] == 0 {
					version[k]++
					if err := c.Put(name, stamped(w, k, version[k], size(k, version[k]))); err != nil {
						t.Errorf("client %d put %s: %v", w, name, err)
						return
					}
					continue
				}
				got, err := c.Get(name)
				want := stamped(w, k, version[k], size(k, version[k]))
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("client %d get %s v%d: %v\n got %x\nwant %x", w, name, version[k], err, got, want)
					return
				}
			}
			st := c.StatsStruct()
			if st.BadFrames != 0 || st.IntegrityFailures != 0 || st.UnauthStatuses != 0 || st.StaleFrames != 0 {
				t.Errorf("client %d: bad=%d integrity=%d unauth=%d stale=%d frames on a clean fabric",
					w, st.BadFrames, st.IntegrityFailures, st.UnauthStatuses, st.StaleFrames)
			}
		}(uint32(w + 1))
	}
	wg.Wait()
}

// TestOwnerOnlyToggleWhileReading flips the access-control policy while
// two sessions read: the policy word is read on every get, delete and
// batched get without the session-map lock, so the toggle must be an
// atomic. The owner always sees its value; the other session sees it or
// a not-found, depending on which side of a toggle its read fell.
func TestOwnerOnlyToggleWhileReading(t *testing.T) {
	tc := newCluster(t, ServerConfig{Workers: 2})
	owner, other := tc.connect(), tc.connect()
	want := []byte("owned value")
	if err := owner.Put("acl-key", want); err != nil {
		t.Fatal(err)
	}
	reads := 2000
	if testing.Short() {
		reads = 300
	}
	stop := make(chan struct{})
	var toggler sync.WaitGroup
	toggler.Add(1)
	go func() {
		defer toggler.Done()
		on := false
		for {
			select {
			case <-stop:
				return
			default:
				on = !on
				tc.server.SetOwnerOnly(on)
			}
		}
	}()
	var readers sync.WaitGroup
	for _, r := range []struct {
		c       *Client
		isOwner bool
	}{{owner, true}, {other, false}} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < reads; i++ {
				var got []byte
				var err error
				if i%2 == 0 {
					got, err = r.c.Get("acl-key")
				} else {
					var res []BatchResult
					if res, err = r.c.Batch(batchOps(BatchGet, []string{"acl-key"})); err == nil {
						got, err = res[0].Value, res[0].Err
					}
				}
				switch {
				case err == nil && bytes.Equal(got, want):
				case !r.isOwner && errors.Is(err, ErrNotFound):
				default:
					t.Errorf("owner=%v read %d: %q, %v", r.isOwner, i, got, err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	toggler.Wait()
}

// fill overwrites b with a byte no key, value or record contains.
func fill(b []byte) {
	for i := range b {
		b[i] = 0xEE
	}
}

// scribbleFS is a MemFS that remembers every buffer the log reads segment
// bytes into — a read-through's record, a compaction's or a replay's walk
// window — so a test can overwrite them once the operation that read them
// is over.
type scribbleFS struct {
	*vlog.MemFS
	mu   sync.Mutex
	bufs [][]byte
}

func (f *scribbleFS) OpenRead(path string) (vlog.File, error) {
	file, err := f.MemFS.OpenRead(path)
	if err != nil {
		return nil, err
	}
	return scribbleFile{File: file, fs: f}, nil
}

// scribble overwrites every buffer read into since the last call.
func (f *scribbleFS) scribble() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, b := range f.bufs {
		fill(b)
	}
	f.bufs = f.bufs[:0]
}

type scribbleFile struct {
	vlog.File
	fs *scribbleFS
}

func (r scribbleFile) ReadAt(p []byte, off int64) (int, error) {
	r.fs.mu.Lock()
	r.fs.bufs = append(r.fs.bufs, p)
	r.fs.mu.Unlock()
	return r.File.ReadAt(p, off)
}

// TestStoreOwnsItsKeys: puts, overwrites and deletes hand the table and
// a repair session's dirty-key set a view of the opened control's key
// bytes, and compaction hands the table a view of the record's key in its
// walk window. After every operation this test overwrites the control
// plaintext of every session and, with a value log, every buffer the log
// read into; the keys the store kept must be its own copies all the same —
// Range lists the original keys, the repair session's DeltaSince the keys
// dirtied since its FetchSnapshot, and a seal → restore round trip brings
// back every key and value.
func TestStoreOwnsItsKeys(t *testing.T) {
	for _, mode := range []string{"base", "vlog"} {
		t.Run(mode, func(t *testing.T) {
			var tc *testCluster
			var h *vlogHarness
			var fs *scribbleFS
			if mode == "vlog" {
				h = newVlogHarness(t, 29, func(cfg *ServerConfig) {
					cfg.Workers = 1
					cfg.Vlog.InlineMax = 1 // every get reads through
					cfg.Vlog.SegmentBytes = 4 << 10
					cfg.Vlog.GCThreshold = 0.3
					fs = &scribbleFS{MemFS: cfg.Vlog.FS.(*vlog.MemFS)}
					cfg.Vlog.FS = fs
				})
				tc = h.boot()
			} else {
				tc = newCluster(t, ServerConfig{Workers: 1})
			}
			c := tc.connect()
			// A repair session's snapshot arms the dirty-key set the ops fill.
			rc := tc.connect()
			gen, err := rc.FetchSnapshot(io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			scribble := func() {
				s := tc.server
				s.mu.Lock()
				for _, sess := range s.sessions {
					fill(sess.ctlPt[:cap(sess.ctlPt)])
				}
				s.mu.Unlock()
				if fs != nil {
					fs.scribble()
				}
			}
			do := func(what string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				scribble()
			}
			const keys = 48
			key := func(i int) string { return fmt.Sprintf("owned-key-%03d", i) }
			value := func(i, v int) []byte { return stamped(7, uint32(i), uint32(v), 200+i) }
			want := map[string][]byte{}
			var dirty []string
			for i := 0; i < keys; i++ {
				do("put", c.Put(key(i), value(i, 0)))
				dirty = append(dirty, key(i))
			}
			// Overwrites, single and in frames of eight; then every fourth
			// key deleted, alternately alone and in a frame.
			for round := 1; round <= 3; round++ {
				for i := 0; i < keys; i += 8 {
					if round%2 == 1 {
						ops := make([]BatchOp, 0, 8)
						for j := i; j < i+8; j++ {
							ops = append(ops, BatchOp{Kind: BatchPut, Key: key(j), Value: value(j, round)})
						}
						_, err := c.Batch(ops)
						do("overwrite frame", err)
						continue
					}
					for j := i; j < i+8; j++ {
						do("overwrite", c.Put(key(j), value(j, round)))
					}
				}
			}
			for i := 0; i < keys; i++ {
				want[key(i)] = value(i, 3)
			}
			for i := 0; i < keys; i += 4 {
				if i%8 == 0 {
					do("delete", c.Delete(key(i)))
				} else {
					_, err := c.Batch([]BatchOp{{Kind: BatchDelete, Key: key(i)}})
					do("delete frame", err)
				}
				delete(want, key(i))
			}
			if h != nil {
				tc.server.VlogGCOnce()
				st := tc.server.Stats().Vlog
				if st.Log.GCSegments == 0 || st.GCMovedRecords == 0 {
					t.Fatalf("compaction moved nothing (%d segments removed, %d records moved); the test needs relocations",
						st.Log.GCSegments, st.GCMovedRecords)
				}
				scribble()
			}

			check := func(tc *testCluster, c *Client, when string) {
				t.Helper()
				var got []string
				tc.server.table.Range(func(k string, _ baseEntry, _ uint32) bool {
					got = append(got, k)
					return true
				})
				sort.Strings(got)
				var wantKeys []string
				for k := range want {
					wantKeys = append(wantKeys, k)
				}
				sort.Strings(wantKeys)
				if !slices.Equal(got, wantKeys) {
					t.Fatalf("%s: Range lists %q, want %q", when, got, wantKeys)
				}
				for _, k := range wantKeys {
					v, err := c.Get(k)
					if err != nil || !bytes.Equal(v, want[k]) {
						t.Fatalf("%s: get %s = %x, %v; want %x", when, k, v, err, want[k])
					}
					scribble()
				}
			}
			check(tc, c, "after the ops")
			delta, err := rc.DeltaSince(gen)
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(dirty)
			if !slices.Equal(delta, dirty) {
				t.Fatalf("DeltaSince = %q, want %q", delta, dirty)
			}

			snap := sealAndCapture(t, tc.server)
			if h != nil {
				tc.server.Close()
				tc = h.boot()
				do("restore", tc.server.Restore(bytes.NewReader(snap)))
				_, err := tc.server.ReplayVlog()
				do("replay", err)
				c = tc.connect()
			} else {
				do("restore", tc.server.Restore(bytes.NewReader(snap)))
			}
			check(tc, c, "after seal → restore")
			// Keys enter a set armed on the restored store: a put's from the
			// restored table, a delete's — the table no longer has it — as a
			// clone.
			rc = tc.connect()
			if gen, err = rc.FetchSnapshot(io.Discard); err != nil {
				t.Fatal(err)
			}
			put, del := key(1), key(2)
			want[put] = value(1, 4)
			do("put after restore", c.Put(put, want[put]))
			do("delete after restore", c.Delete(del))
			delete(want, del)
			if delta, err := rc.DeltaSince(gen); err != nil || !slices.Equal(delta, []string{put, del}) {
				t.Fatalf("DeltaSince after restore = %q, %v; want [%s %s]", delta, err, put, del)
			}
			check(tc, c, "after a put on the restored store")
		})
	}
}

// TestReadThroughBatchesOnTwoSessions: two sessions of one trusted thread
// each send frames of 32 gets that every one reads through the value log.
// A read-through reads its record into the session's own buffer, which the
// next read-through reuses: every payload must reach the reply before the
// frame's next get overwrites it, and one session's frames must never see
// the other's bytes.
func TestReadThroughBatchesOnTwoSessions(t *testing.T) {
	h := newVlogHarness(t, 31, func(cfg *ServerConfig) {
		cfg.Workers = 1
		cfg.Vlog.InlineMax = 1 // nothing memory-resident
	})
	tc := h.boot()
	const perSession = 32
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	size := func(k int) int { return 64 + (k*29)%384 }
	clients := []*Client{tc.connect(), tc.connect()}
	for w, c := range clients {
		for k := 0; k < perSession; k++ {
			mustPut(t, c, fmt.Sprintf("s%d-k%02d", w, k), stamped(uint32(w), uint32(k), 1, size(k)))
		}
	}
	before := tc.server.Stats().Vlog.ReadThroughs
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops := make([]BatchOp, perSession)
			for r := 0; r < rounds; r++ {
				for k := range ops {
					// Each round walks the keys from another offset, so a
					// record follows a different one in every frame.
					j := (k + r) % perSession
					ops[k] = BatchOp{Kind: BatchGet, Key: fmt.Sprintf("s%d-k%02d", w, j)}
				}
				res, err := c.Batch(ops)
				if err != nil {
					t.Errorf("session %d round %d: %v", w, r, err)
					return
				}
				for k, got := range res {
					j := (k + r) % perSession
					if want := stamped(uint32(w), uint32(j), 1, size(j)); got.Err != nil || !bytes.Equal(got.Value, want) {
						t.Errorf("session %d round %d get %d: %x, %v; want %x", w, r, j, got.Value, got.Err, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if n, want := tc.server.Stats().Vlog.ReadThroughs-before, uint64(len(clients)*rounds*perSession); n != want {
		t.Errorf("%d read-throughs, want %d: every get must read through", n, want)
	}
}
