package core

import (
	"errors"
	"sort"
	"strings"
)

// Delta log: the bounded set of keys dirtied since the last seal.
//
// Anti-entropy repair reconstructs a lagging replica as "sealed snapshot
// at generation g, plus a replay of every key dirtied since g". The
// server only needs to remember *which* keys changed — the repairing
// client fetches their current values (and re-encrypts them under fresh
// one-time keys) through the ordinary data path, so no payload plaintext
// or key material is involved here, matching the client-centric trust
// model.

// deltaLogCap bounds the dirty-key set. Past the cap the log is poisoned
// (ErrDeltaTruncated) until the next seal: repair then falls back to a
// fresh full snapshot instead of an incomplete delta.
const deltaLogCap = 1 << 16

// Delta-log errors.
var (
	// ErrDeltaTruncated reports a dirty-key set that overflowed its bound:
	// the delta since the last seal is incomplete and must not be used.
	ErrDeltaTruncated = errors.New("precursor: delta log truncated")
	// ErrSealGeneration reports a DeltaSince generation that does not match
	// the server's last seal — the caller's snapshot is stale.
	ErrSealGeneration = errors.New("precursor: seal generation mismatch")
)

// recordDelta marks key dirty since the last seal. Called on the apply
// path after the table mutation, so a key is never in the delta without
// its final state being visible to a subsequent read. key may be a view: a
// key entering the set shares the table's copy, or is cloned once the table
// no longer has it (a delete). The table lock nests inside deltaMu.
func (s *Server) recordDelta(key string) {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	if _, dirty := s.delta[key]; dirty || s.deltaOverflow {
		return
	}
	if len(s.delta) >= deltaLogCap {
		s.deltaOverflow = true
		s.delta = make(map[string]struct{})
		return
	}
	own, ok := s.table.Key(key)
	if !ok {
		own = strings.Clone(key)
	}
	s.delta[own] = struct{}{}
}

// beginDeltaSeal swaps in a fresh dirty-key set before state
// serialization starts. Writes applied while the snapshot is being taken
// land in the new set (and possibly also in the snapshot — a harmless
// duplicate), so "snapshot + delta" never misses a write. While the seal
// is in progress the log answers ErrSealGeneration; commitDeltaSeal or
// abortDeltaSeal ends that window.
func (s *Server) beginDeltaSeal() {
	s.deltaMu.Lock()
	s.delta = make(map[string]struct{})
	s.deltaOverflow = false
	s.deltaSealing = true
	s.deltaMu.Unlock()
}

// commitDeltaSeal stamps the freshly swapped dirty-key set with the
// seal's counter value.
func (s *Server) commitDeltaSeal(gen uint64) {
	s.deltaMu.Lock()
	s.deltaGen = gen
	s.deltaSealing = false
	s.deltaMu.Unlock()
}

// abortDeltaSeal poisons the log after a failed seal: the pre-seal dirty
// set was discarded, so deltas against the previous generation would be
// incomplete. The next successful seal heals it.
func (s *Server) abortDeltaSeal() {
	s.deltaMu.Lock()
	s.deltaOverflow = true
	s.deltaSealing = false
	s.deltaMu.Unlock()
}

// SealGeneration returns the trusted-counter value of the last seal this
// process performed (0 before the first seal). DeltaSince against this
// generation enumerates everything dirtied after that seal.
func (s *Server) SealGeneration() uint64 {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	return s.deltaGen
}

// DeltaSince returns the sorted keys dirtied since the seal at generation
// gen. It fails with ErrSealGeneration when gen is not the server's last
// seal (the caller's snapshot is stale — take a new one) and with
// ErrDeltaTruncated when the dirty-key set overflowed (fall back to a
// full snapshot).
func (s *Server) DeltaSince(gen uint64) ([]string, error) {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	if s.deltaSealing || gen != s.deltaGen {
		return nil, ErrSealGeneration
	}
	if s.deltaOverflow {
		return nil, ErrDeltaTruncated
	}
	keys := make([]string, 0, len(s.delta))
	for k := range s.delta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}
