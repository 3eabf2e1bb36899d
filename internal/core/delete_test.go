package core

import (
	"fmt"
	"sync"
	"testing"

	"precursor/internal/wire"
)

// TestDeleteReleasesWhatItRemoves: a delete racing a put of the same key
// on another trusted thread removes one entry — the one it found under
// the table lock — and releases exactly that one. Session a puts small
// values and deletes them while session b overwrites the key with large
// ones, from another pool class; afterwards, with the last entry deleted,
// the pool holds nothing: no slot freed twice, none leaked. A delete that
// released a stale copy of its entry instead would free a's small slot a
// second time and leak b's large one, which shows as a nonzero balance.
// With owner-only on, a's deletes must also leave b's values alone, which
// the same balance shows: removing b's entry on the strength of a stale
// copy that a owned releases the wrong slot.
func TestDeleteReleasesWhatItRemoves(t *testing.T) {
	const rounds = 20000
	for _, ownerOnly := range []bool{false, true} {
		t.Run(fmt.Sprintf("owner-only=%v", ownerOnly), func(t *testing.T) {
			s := newCluster(t, ServerConfig{Workers: 1}).server
			s.SetOwnerOnly(ownerOnly)
			a, b := &session{id: 1}, &session{id: 2}
			opKey := make([]byte, wire.OpKeySize)
			put := func(sess *session, size int) {
				o := wire.BatchOp{Op: wire.OpPut, Key: []byte("k"), OpKey: opKey}
				if res := s.applyPut(sess, &o, make([]byte, size+wire.MACSize), 0, nil); res.Status != wire.StatusOK {
					t.Errorf("put by session %d: status %v", sess.id, res.Status)
				}
			}
			del := func(sess *session) wire.Status {
				return s.applyDelete(sess, &wire.BatchOp{Op: wire.OpDelete, Key: []byte("k")}, nil).Status
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					put(a, 32)
					del(a)
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					put(b, 1024)
				}
			}()
			wg.Wait()
			if e, ok := s.table.Get("k"); ok {
				owner := a
				if e.owner == b.id {
					owner = b
				}
				if st := del(owner); st != wire.StatusOK {
					t.Fatalf("the owner's last delete: status %v", st)
				}
			}
			st := s.Stats()
			if st.Entries != 0 || st.PoolBytesInUse != 0 || st.PoolBytesRequested != 0 {
				t.Errorf("after the last delete: %d entries, %d pool bytes in use, %d requested; want none",
					st.Entries, st.PoolBytesInUse, st.PoolBytesRequested)
			}
		})
	}
}
