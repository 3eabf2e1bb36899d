package core

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Delta: the keys dirtied since a repair session's snapshot, which the
// repairing client re-reads through the data path — no value, K_op or MAC
// is kept here. A session's OpSnapshot at off 0 arms its set
// before the seal serializes the table, its OpDelta takes the set, and a
// new snapshot, a
// restore or the session's end drops it. With no repair in flight a
// write records nothing.

// deltaLogCap bounds a dirty-key set. Past the cap the set lets its keys
// go and its delta answers ErrDeltaTruncated: repair then starts over with
// a fresh snapshot instead of an incomplete delta.
const deltaLogCap = 1 << 16

// Delta errors.
var (
	// ErrDeltaTruncated reports a dirty-key set that overflowed its bound:
	// the delta since the snapshot is incomplete and must not be used.
	ErrDeltaTruncated = errors.New("precursor: delta log truncated")
	// ErrSealGeneration reports a delta generation that is not the one of
	// the session's own last snapshot — the caller's snapshot is stale.
	ErrSealGeneration = errors.New("precursor: seal generation mismatch")
)

// dirtySet is one repair session's dirty-key set. gen, its snapshot's
// generation, is written and read only by the session's trusted thread.
type dirtySet struct {
	gen  uint64
	keys map[string]struct{} // nil once the set overflowed deltaLogCap
}

// dirtySets are the sets of the repairs in flight, by session. armed is
// their count, so a write with none in flight takes no lock.
type dirtySets struct {
	armed     atomic.Int32
	mu        sync.Mutex
	bySession map[uint32]*dirtySet
}

// arm registers a fresh set for sess in place of the one it had. An ended
// session's set goes unregistered: endSession marks the session revoked
// before it drops the session's set.
func (d *dirtySets) arm(sess *session) *dirtySet {
	set := &dirtySet{keys: make(map[string]struct{})}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.bySession == nil {
		d.bySession = make(map[uint32]*dirtySet)
	}
	if !sess.revoked.Load() {
		d.bySession[sess.id] = set
	}
	d.armed.Store(int32(len(d.bySession)))
	return set
}

// drop unregisters session id's set, if any, and returns it.
func (d *dirtySets) drop(id uint32) *dirtySet {
	d.mu.Lock()
	defer d.mu.Unlock()
	set := d.bySession[id]
	delete(d.bySession, id)
	d.armed.Store(int32(len(d.bySession)))
	return set
}

// dropAll unregisters every set: once the store's state is replaced
// wholesale, no earlier snapshot describes it.
func (d *dirtySets) dropAll() {
	d.mu.Lock()
	clear(d.bySession)
	d.armed.Store(0)
	d.mu.Unlock()
}

// take unregisters session id's set and returns its keys, sorted:
// ErrSealGeneration unless the set is of generation gen — take a fresh
// snapshot — and ErrDeltaTruncated if it overflowed.
func (d *dirtySets) take(id uint32, gen uint64) ([]string, error) {
	set := d.drop(id)
	switch {
	case set == nil || set.gen != gen:
		return nil, ErrSealGeneration
	case set.keys == nil:
		return nil, ErrDeltaTruncated
	}
	keys := make([]string, 0, len(set.keys))
	for k := range set.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// recordDelta marks key dirty in every armed set. Called on the apply path
// after the table mutation, so a key is never in a delta before its final
// state is visible to a read, and a write that finds no set armed mutated
// the table before any snapshot now starting serializes it. key may be a
// view: a set shares the table's copy, or clones a key the table no longer
// has (a delete). The table lock nests inside dirtySets.mu.
func (s *Server) recordDelta(key string) {
	d := &s.dirty
	if d.armed.Load() == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	own, owned := key, false
	for _, set := range d.bySession {
		if _, dirty := set.keys[key]; dirty || set.keys == nil {
			continue
		}
		if len(set.keys) >= deltaLogCap {
			set.keys = nil
			continue
		}
		if !owned {
			if own, owned = s.table.Key(key); !owned {
				own, owned = strings.Clone(key), true
			}
		}
		set.keys[own] = struct{}{}
	}
}
