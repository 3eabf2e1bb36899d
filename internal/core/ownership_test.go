package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"precursor/internal/obs"
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
		cli  func(*ClientConfig)
	}{
		{name: "base"},
		{name: "hardened", srv: ServerConfig{HardenedMACs: true}},
		{name: "inline", srv: ServerConfig{InlineSmallValues: true},
			cli: func(c *ClientConfig) { c.InlineSmallValues = true }},
	}
	retain, churn := 1000, 10000
	if testing.Short() {
		retain, churn = 200, 2000
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			tc := newCluster(t, m.srv)
			var opts []func(*ClientConfig)
			if m.cli != nil {
				opts = append(opts, m.cli)
			}
			c := tc.connect(opts...)
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

// TestSingleOpPollResolvesPipelinedBatches has a single-op Get poll the
// response ring while BatchAsync futures are in flight on the same
// connection: the batch replies are opened and resolved from inside the
// Get's own poll loop, on the scratch the Get's reply is about to use.
// Both must come out right — also when the Get is traced: every reply
// seals under the same AD, and only its sealed oid echo tells the Get's
// frame of one from the futures' frames.
func TestSingleOpPollResolvesPipelinedBatches(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			tc := newCluster(t, ServerConfig{})
			var opts []func(*ClientConfig)
			if traced {
				tr := obs.New(obs.Config{Side: obs.SideClient, Ring: 16})
				opts = append(opts, func(c *ClientConfig) { c.Tracer = tr })
			}
			c := tc.connect(opts...)
			const perBatch = 8
			if err := c.Put("single", stamped(9, 9, 9, 300)); err != nil {
				t.Fatal(err)
			}
			rounds := 50
			if testing.Short() {
				rounds = 10
			}
			for r := 0; r < rounds; r++ {
				// The pipelining window starts at one frame and widens with
				// every success, so later rounds really have several in flight.
				inflight := 1 + r%4
				var futures []*BatchFuture
				for b := 0; b < inflight; b++ {
					ops := make([]BatchOp, 0, 2*perBatch)
					for i := 0; i < perBatch; i++ {
						k := uint32(b*perBatch + i)
						ops = append(ops, BatchOp{Kind: BatchPut, Key: fmt.Sprintf("pipe-%d", k),
							Value: stamped(3, k, uint32(r), 40+int(k))})
					}
					for i := 0; i < perBatch; i++ {
						ops = append(ops, BatchOp{Kind: BatchGet, Key: fmt.Sprintf("pipe-%d", b*perBatch+i)})
					}
					f, err := c.BatchAsync(ops)
					if err != nil {
						t.Fatal(err)
					}
					futures = append(futures, f)
				}
				got, err := c.Get("single")
				if err != nil || !bytes.Equal(got, stamped(9, 9, 9, 300)) {
					t.Fatalf("round %d: single Get among %d batches = %x, %v", r, inflight, got, err)
				}
				for b, f := range futures {
					res, err := f.Wait()
					if err != nil {
						t.Fatalf("round %d batch %d: %v", r, b, err)
					}
					for i := 0; i < perBatch; i++ {
						k := uint32(b*perBatch + i)
						if res[i].Err != nil {
							t.Fatalf("round %d batch %d put %d: %v", r, b, i, res[i].Err)
						}
						want := stamped(3, k, uint32(r), 40+int(k))
						if g := res[perBatch+i]; g.Err != nil || !bytes.Equal(g.Value, want) {
							t.Fatalf("round %d batch %d get %d = %x, %v; want %x", r, b, i, g.Value, g.Err, want)
						}
					}
				}
			}
			st := c.StatsStruct()
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
