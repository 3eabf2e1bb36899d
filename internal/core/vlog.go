package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"precursor/internal/audit"
	"precursor/internal/cryptox"
	"precursor/internal/vlog"
	"precursor/internal/wire"
)

// Durable tiered storage: the trusted/untrusted storage split.
//
// Values arrive client-encrypted and MACed, so the same property that
// keeps payloads out of the enclave on the wire (§3.2) keeps them off
// trusted storage: the ciphertext spills verbatim to a value log on
// untrusted disk (internal/vlog), and the enclave keeps only the index
// — key, K_operation, and a value pointer — plus a small sealed
// metadata blob per log record. The enclave authenticates each record's
// *placement* by folding (segment, offset) and the key into the AEAD
// associated data of that sealed metadata: the host can shuffle,
// truncate or duplicate log records, but any record that opens under a
// given (segment, offset, key) is exactly the record the enclave wrote
// there. Freshness across restarts comes from the trusted-counter-
// validated snapshot (index + per-entry sequence numbers) plus replay
// of the log tail; a host that drops whole synced segments below the
// snapshot's watermark is detected as a rollback.

// ErrTornSegment re-exports the value log's typed torn-write error:
// replay truncates at the damage and continues. It is deliberately
// distinct from ErrSnapshotAuth, which reports cryptographic tampering
// and refuses recovery.
var ErrTornSegment = vlog.ErrTornSegment

// ErrVlogDisabled reports a value-log operation on a server without a
// DataDir.
var ErrVlogDisabled = errors.New("precursor: value log not enabled (no DataDir)")

// Value-log defaults.
const (
	// DefaultVlogInlineMax is the stored-bytes threshold at or under
	// which a logged value also keeps a memory-resident copy.
	DefaultVlogInlineMax = 4096
	// DefaultVlogGCInterval is how often the background compactor scans
	// for reclaimable segments.
	DefaultVlogGCInterval = 2 * time.Second
	// DefaultVlogGCThreshold is the dead-byte ratio above which a sealed
	// segment is compacted.
	DefaultVlogGCThreshold = 0.5
)

// VlogConfig tunes the durable value log. It is read only when
// ServerConfig.DataDir is set; zero values take defaults.
type VlogConfig struct {
	// SegmentBytes is the log's segment rotation threshold.
	SegmentBytes int64
	// InlineMax is the stored-payload size at or under which a value
	// keeps an untrusted-memory copy beside its log record, so gets skip
	// the disk read — the storage analogue of the paper's inline-send
	// cutoff. Larger values are disk-only and served by read-through.
	InlineMax int
	// MemoryCapBytes bounds the untrusted pool bytes used for those
	// memory copies (0 = unbounded). Past the cap new values are
	// disk-only, which is how a store serves datasets much larger than
	// memory.
	MemoryCapBytes int64
	// GCInterval is the compaction scan period (<0 disables background
	// GC; 0 = default).
	GCInterval time.Duration
	// GCThreshold is the dead-byte ratio that makes a segment a
	// compaction candidate.
	GCThreshold float64
	// FS overrides the log's filesystem — the hook crash tests use to
	// inject torn writes (vlog.MemFS). Nil = the real OS.
	FS vlog.FS
}

// withVlogDefaults fills zero fields.
func (c VlogConfig) withVlogDefaults() VlogConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = vlog.DefaultSegmentBytes
	}
	if c.InlineMax <= 0 {
		c.InlineMax = DefaultVlogInlineMax
	}
	if c.GCInterval == 0 {
		c.GCInterval = DefaultVlogGCInterval
	}
	if c.GCThreshold <= 0 || c.GCThreshold > 1 {
		c.GCThreshold = DefaultVlogGCThreshold
	}
	return c
}

// VlogStats is a snapshot of value-log activity, embedded in
// ServerStats when the log is enabled.
type VlogStats struct {
	Log vlog.Stats
	// ReadThroughs counts gets served from disk (value not memory-resident).
	ReadThroughs uint64
	// ReadErrors counts read-throughs that failed structurally.
	ReadErrors uint64
	// AuthFailures counts records whose sealed metadata failed
	// authentication — tampering, audited as snapshot_auth.
	AuthFailures uint64
	// GCRuns counts compaction passes; GCMovedRecords the live records
	// relocated by them.
	GCRuns         uint64
	GCMovedRecords uint64
	// CachedBytes is the untrusted pool memory holding value copies.
	CachedBytes int64
}

// seqTracker maintains the contiguous applied-sequence watermark: the
// highest W such that every log record with seq ≤ W has been applied to
// the index. Snapshots embed W; recovery replays records above it.
// Appends complete in arbitrary order relative to their reservation
// order, so out-of-order completions park in pending until the gap
// below them closes.
type seqTracker struct {
	mu      sync.Mutex
	mark    uint64
	pending map[uint64]struct{}
}

// applied records that seq's effect is in the index (or was superseded).
func (t *seqTracker) applied(seq uint64) {
	if seq == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq <= t.mark {
		return
	}
	if seq != t.mark+1 {
		if t.pending == nil {
			t.pending = make(map[uint64]struct{})
		}
		t.pending[seq] = struct{}{}
		return
	}
	t.mark = seq
	for {
		if _, ok := t.pending[t.mark+1]; !ok {
			return
		}
		delete(t.pending, t.mark+1)
		t.mark++
	}
}

// watermark returns the current contiguous watermark.
func (t *seqTracker) watermark() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mark
}

// reset rebases the tracker (after restore/replay).
func (t *seqTracker) reset(v uint64) {
	t.mu.Lock()
	t.mark = v
	t.pending = nil
	t.mu.Unlock()
}

// Sealed metadata: the per-record blob only the enclave can produce or
// open. Plaintext layout (fixed prefix then optional inline value):
//
//	ver u8 | flags u8 | seq u64 | owner u32 | opKey 32 | mac 16 |
//	valLen u16 | value
//
// The AEAD associated data binds the record's placement and key:
// "precursor-vlog-rec-v1" ‖ segment u32 ‖ offset u64 ‖ key.
const (
	vlogMetaVersion   = 1
	vlogMetaFixedLen  = 1 + 1 + 8 + 4 + cryptox.OperationKeySize + wire.MACSize + 2
	vlogMetaTombstone = 1
	vlogMetaInline    = 2
	vlogMetaHasMAC    = 4
)

// vlogMeta is the decoded sealed metadata of one record.
type vlogMeta struct {
	flags byte
	seq   uint64
	owner uint32
	opKey cryptox.OperationKey
	mac   [wire.MACSize]byte
	value []byte // inline value, only when vlogMetaInline
}

// appendVlogMeta appends m's plaintext, sealed under sequence seq, to dst.
func appendVlogMeta(dst []byte, m *vlogMeta, seq uint64) []byte {
	dst = append(dst, vlogMetaVersion, m.flags)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, m.owner)
	dst = append(dst, m.opKey[:]...)
	dst = append(dst, m.mac[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.value)))
	return append(dst, m.value...)
}

// decodeVlogMeta parses sealed-metadata plaintext; the inline value
// aliases buf.
func decodeVlogMeta(buf []byte) (vlogMeta, error) {
	if len(buf) < vlogMetaFixedLen || buf[0] != vlogMetaVersion {
		return vlogMeta{}, fmt.Errorf("%w: bad value-log metadata", ErrSnapshotFormat)
	}
	m := vlogMeta{flags: buf[1]}
	m.seq = binary.LittleEndian.Uint64(buf[2:])
	m.owner = binary.LittleEndian.Uint32(buf[10:])
	copy(m.opKey[:], buf[14:14+cryptox.OperationKeySize])
	copy(m.mac[:], buf[14+cryptox.OperationKeySize:])
	valLen := int(binary.LittleEndian.Uint16(buf[vlogMetaFixedLen-2:]))
	if len(buf) != vlogMetaFixedLen+valLen {
		return vlogMeta{}, fmt.Errorf("%w: bad value-log metadata length", ErrSnapshotFormat)
	}
	m.value = buf[vlogMetaFixedLen:]
	return m, nil
}

// appendVlogAD appends the placement-bound associated data for a record.
func appendVlogAD(dst []byte, ptr vlog.Ptr, key []byte) []byte {
	dst = append(dst, "precursor-vlog-rec-v1"...)
	dst = binary.LittleEndian.AppendUint32(dst, ptr.Segment)
	dst = binary.LittleEndian.AppendUint64(dst, ptr.Offset)
	return append(dst, key...)
}

// initVlog opens the value log and derives its metadata sealing key
// inside the enclave. Called from NewServer when DataDir is set.
func (s *Server) initVlog() error {
	s.cfg.Vlog = s.cfg.Vlog.withVlogDefaults()
	mk, err := s.sealedKey("derive_vlog_key", "precursor-vlog-meta-v1", 16)
	if err == nil {
		s.vlogAEAD, err = cryptox.NewAEAD(mk)
	}
	if err != nil {
		return fmt.Errorf("vlog key: %w", err)
	}
	l, err := vlog.Open(vlog.Config{
		Dir:          filepath.Join(s.cfg.DataDir, "vlog"),
		SegmentBytes: s.cfg.Vlog.SegmentBytes,
		FS:           s.cfg.Vlog.FS,
	})
	if err != nil {
		return err
	}
	s.vlog = l
	if s.cfg.Vlog.GCInterval > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.vlogGCLoop()
		}()
	}
	return nil
}

// sealVlogMeta appends the sealed metadata for m at placement ptr, sequence
// seq, to dst — the log's untrusted record buffer. Plaintext (it carries
// K_operation) and AD are built in the enclave's scratch and never leave it.
func (s *Server) sealVlogMeta(dst []byte, m *vlogMeta, ptr vlog.Ptr, seq uint64, key []byte) ([]byte, error) {
	s.vlogMetaMu.Lock()
	defer s.vlogMetaMu.Unlock()
	plain := appendVlogMeta(s.vlogMetaBuf[:0], m, seq)
	buf := appendVlogAD(plain, ptr, key)
	s.vlogMetaBuf = buf[:0]
	return s.vlogAEAD.SealAppend(dst, buf[:len(plain)], buf[len(plain):])
}

// openVlogMeta opens and parses a record's sealed metadata, verifying
// its placement binding and that the sealed sequence matches the
// record header (the header is untrusted). The plaintext is opened in
// the enclave's scratch; what is returned owns its bytes — an inline
// value is copied out. A record that fails authentication is audited.
func (s *Server) openVlogMeta(ptr vlog.Ptr, rec vlog.Record) (m vlogMeta, err error) {
	defer func() {
		if errors.Is(err, ErrSnapshotAuth) {
			s.vlogAuthFailure(err)
		}
	}()
	s.vlogMetaMu.Lock()
	defer s.vlogMetaMu.Unlock()
	buf := appendVlogAD(s.vlogMetaBuf[:0], ptr, rec.Key)
	n := len(buf)
	buf, err = s.vlogAEAD.OpenAppend(buf, rec.Meta, buf[:n])
	if err != nil {
		return vlogMeta{}, fmt.Errorf("%w: value-log record %v", ErrSnapshotAuth, ptr)
	}
	s.vlogMetaBuf = buf[:0]
	if m, err = decodeVlogMeta(buf[n:]); err != nil {
		return vlogMeta{}, err
	}
	if m.seq != rec.Seq {
		return vlogMeta{}, fmt.Errorf("%w: value-log record %v header seq %d != sealed seq %d",
			ErrSnapshotAuth, ptr, rec.Seq, m.seq)
	}
	if (m.flags&vlogMetaTombstone != 0) != rec.Tombstone {
		return vlogMeta{}, fmt.Errorf("%w: value-log record %v tombstone flag mismatch", ErrSnapshotAuth, ptr)
	}
	m.value = append([]byte(nil), m.value...)
	return m, nil
}

// vlogAuthFailure audits a record whose sealed metadata failed to
// authenticate — tampering with untrusted storage, not a torn write.
func (s *Server) vlogAuthFailure(err error) {
	s.vlogAuthFails.Add(1)
	s.cfg.Audit.Add(audit.Record{Kind: audit.KindSnapshotAuth,
		Detail: fmt.Sprintf("value log: %v", err)})
	s.logEvent("value-log record failed authentication", slog.String("error", err.Error()))
}

// vlogMayCache reports whether a stored payload of n bytes may keep a
// memory-resident copy under the configured cap and threshold.
func (s *Server) vlogMayCache(n int) bool {
	if n > s.cfg.Vlog.InlineMax {
		return false
	}
	if cap := s.cfg.Vlog.MemoryCapBytes; cap > 0 {
		if s.pool.Stats().BytesInUse+int64(n) > cap {
			return false
		}
	}
	return true
}

// vlogAppend appends one record for key — payload beside the sealed
// metadata m — and blocks until it is durable. at is zero for a new
// record, or the sequence number a relocated one keeps.
func (s *Server) vlogAppend(key []byte, m *vlogMeta, payload []byte, at uint64) (vlog.Ptr, uint64, error) {
	return s.vlog.AppendSealed(key, payload, m.flags&vlogMetaTombstone != 0,
		vlogMetaFixedLen+len(m.value)+cryptox.SealOverhead, at,
		func(dst []byte, ptr vlog.Ptr, seq uint64) ([]byte, error) {
			return s.sealVlogMeta(dst, m, ptr, seq, key)
		})
}

// vlogPut appends e's record and blocks until it is durable: payload is
// the stored ciphertext bytes, none for an enclave-inline value, which
// rides in the sealed metadata. On success e.vptr and e.seq are set.
func (s *Server) vlogPut(key []byte, e *entry, payload []byte) (err error) {
	m := vlogMeta{owner: e.owner, opKey: e.opKey, mac: e.mac}
	if e.inline != nil {
		m.flags |= vlogMetaInline
		m.value = e.inline.Data
	}
	if e.hasMAC {
		m.flags |= vlogMetaHasMAC
	}
	e.vptr, e.seq, err = s.vlogAppend(key, &m, payload, 0)
	return err
}

// vlogReadThrough serves a get whose value is not memory-resident: read
// the record at the entry's pointer, re-authenticate its sealed
// metadata against the placement, and return the value bytes. If the
// segment vanished under a concurrent GC relocation, the entry is
// re-fetched once into *e and the read retried. The record is read into
// sess.recBuf: a payload returned aliases it until the session's next
// read-through, so the caller copies it into the reply before the next op.
func (s *Server) vlogReadThrough(sess *session, key []byte, e *entry) (value []byte, inline bool, err error) {
	for attempt := 0; ; attempt++ {
		rec, buf, rerr := s.vlog.ReadInto(sess.recBuf, e.vptr)
		if sess.recBuf = buf; rerr != nil {
			if attempt == 0 && (errors.Is(rerr, vlog.ErrNotFound) || errors.Is(rerr, vlog.ErrBadRecord)) {
				// GC removed the segment after we loaded the entry (a
				// mid-read removal can surface as a bad-record read error
				// from the closed handle); the relocated pointer is in
				// the table now.
				cur, ok := s.table.Get(keyView(key))
				if ok && cur.vptr != e.vptr {
					*e = cur
					continue
				}
			}
			s.vlogReadErrors.Add(1)
			return nil, false, rerr
		}
		if !bytes.Equal(rec.Key, key) {
			s.vlogReadErrors.Add(1)
			return nil, false, fmt.Errorf("%w: value-log record %v key mismatch", ErrSnapshotAuth, e.vptr)
		}
		m, merr := s.openVlogMeta(e.vptr, rec)
		if merr != nil {
			return nil, false, merr
		}
		s.vlogReads.Add(1)
		if m.flags&vlogMetaInline != 0 {
			return m.value, true, nil
		}
		return rec.Payload, false, nil
	}
}

// VlogRecovery summarises a ReplayVlog pass.
type VlogRecovery struct {
	// Replay carries the log-level scan stats, including torn-tail
	// truncations (Replay.Torn wraps ErrTornSegment when any happened).
	Replay vlog.ReplayStats
	// Applied counts records whose effect entered the index; Skipped
	// counts records superseded by newer state (snapshot or later
	// records); Rehydrated counts snapshot entries whose memory copy was
	// rebuilt from the log.
	Applied    uint64
	Skipped    uint64
	Rehydrated uint64
}

// ReplayVlog recovers the value log after Restore (or on a fresh start
// with existing segments): every record is placement-authenticated and
// applied to the index newest-sequence-wins, torn tails are truncated
// and reported (not fatal), and a record whose sealed metadata fails
// authentication aborts recovery with ErrSnapshotAuth — corruption is
// survivable, tampering is not. Appends are refused until this has run
// on a log with existing segments.
func (s *Server) ReplayVlog() (VlogRecovery, error) {
	if s.vlog == nil {
		return VlogRecovery{}, ErrVlogDisabled
	}
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	var rec VlogRecovery
	watermark := s.vlogWatermark
	tombs := make(map[string]uint64)
	err := s.enclave.Ecall("replay_vlog", func() error {
		st, err := s.vlog.Replay(func(ptr vlog.Ptr, r vlog.Record) error {
			m, err := s.openVlogMeta(ptr, r)
			if err != nil {
				return err
			}
			if m.flags&vlogMetaHasMAC != 0 && s.table.macs == nil { // no column to hold the MAC
				return fmt.Errorf("%w: value-log record %v holds a hardened MAC: needs HardenedMACs", ErrSnapshotFormat, ptr)
			}
			s.applyVlogRecord(ptr, r, &m, tombs, &rec)
			return nil
		})
		rec.Replay = st
		return err
	})
	if err != nil {
		return rec, err
	}
	// Rollback check: the snapshot was validated against the trusted
	// counter and promises every sequence up to its watermark is either
	// in the snapshot or on disk. A log whose highest surviving sequence
	// is below the watermark means the host dropped durable, already-
	// sealed history — rollback, not a torn tail.
	if rec.Replay.MaxSeq < watermark {
		detail := fmt.Sprintf("value log ends at seq %d, snapshot watermark %d", rec.Replay.MaxSeq, watermark)
		s.cfg.Audit.Add(audit.Record{Kind: audit.KindRollback, Detail: detail})
		return rec, fmt.Errorf("%w: %s", ErrSnapshotRollback, detail)
	}
	if rec.Replay.Torn != nil {
		s.logEvent("value log recovered past torn tail",
			slog.Int("tornSegments", rec.Replay.TornSegments),
			slog.Int64("tornBytes", rec.Replay.TornBytes))
	}
	top := rec.Replay.MaxSeq
	if watermark > top {
		top = watermark
	}
	s.vlogTrack.reset(top)
	s.vlog.EnsureSeq(top)
	return rec, nil
}

// applyVlogRecord folds one authenticated record into the index,
// newest-sequence-wins, tracking dead bytes for eventual GC.
func (s *Server) applyVlogRecord(ptr vlog.Ptr, r vlog.Record, m *vlogMeta, tombs map[string]uint64, rec *VlogRecovery) {
	key := keyView(r.Key)
	if r.Tombstone {
		if d, ok := tombs[key]; !ok || r.Seq > d {
			tombs[strings.Clone(key)] = r.Seq
		}
		if s.deleteIf(key, func(e entry) bool { return e.seq < r.Seq }) {
			rec.Applied++
		} else {
			rec.Skipped++
		}
		// The tombstone's own bytes are immediately reclaimable; the
		// GC's carry-forward rule keeps its *effect* alive until no
		// earlier record of the key can exist.
		s.vlog.MarkDead(ptr)
		return
	}
	if d, ok := tombs[key]; ok && r.Seq < d {
		// Deleted by a tombstone newer than this record.
		s.vlog.MarkDead(ptr)
		rec.Skipped++
		return
	}
	e := s.entryFromRecord(ptr, r, m)
	var prev entry
	prevSet := false
	applied := s.table.Upsert(key, func(cur entry, exists bool) (entry, bool) {
		prev, prevSet = entry{}, false
		if exists {
			prev, prevSet = cur, true
			if cur.seq > r.Seq || (cur.seq == r.Seq && cur.vptr == ptr) {
				return cur, false
			}
			// cur.seq < r.Seq: a newer version wins. cur.seq == r.Seq at
			// a *different* placement: GC relocated this version after
			// the snapshot recorded its old pointer, so the on-disk copy
			// we are looking at is the surviving placement — adopt it,
			// or the entry keeps a pointer into a removed segment and
			// the only live copy gets marked dead below.
		}
		return e, true
	})
	switch {
	case applied:
		if prevSet {
			// Superseded version, or the stale pre-relocation placement
			// of this same version: its memory copies are freed and its
			// record (if the segment still exists) marked dead.
			s.releaseEntry(&prev)
		}
		rec.Applied++
	case prevSet && prev.seq == r.Seq && prev.vptr == ptr:
		// This record backs a snapshot entry whose memory copy was not
		// serialized (index-only snapshots): rehydrate it.
		s.freeEntryResources(&e)
		if s.rehydrateEntry(key, &prev, ptr, r, m) {
			rec.Rehydrated++
		}
		rec.Skipped++
	default:
		// Superseded by a newer version already in the index.
		s.freeEntryResources(&e)
		s.vlog.MarkDead(ptr)
		rec.Skipped++
	}
}

// entryFromRecord builds the index entry for an authenticated record,
// rebuilding the enclave-inline region or the untrusted memory copy when
// policy and resources allow; otherwise the entry stays disk-only, served
// by read-through, rather than failing recovery — an inline value too,
// outside inline mode.
func (s *Server) entryFromRecord(ptr vlog.Ptr, r vlog.Record, m *vlogMeta) entry {
	e := entry{baseEntry: baseEntry{opKey: m.opKey, owner: m.owner},
		payloadMAC: payloadMAC{m.flags&vlogMetaHasMAC != 0, m.mac}, version: version{ptr, r.Seq}}
	switch {
	case m.flags&vlogMetaInline == 0:
		_ = s.placeStored(&e, r.Payload)
	case s.cfg.InlineSmallValues:
		_ = s.placeInline(&e, m.value)
	}
	return e
}

// rehydrateEntry rebuilds the memory-resident copy of a snapshot entry
// from its log record, swapping in a fresh entry only if the installed one
// is still that version, (seq, vptr), and still not resident.
func (s *Server) rehydrateEntry(key string, cur *entry, ptr vlog.Ptr, r vlog.Record, m *vlogMeta) bool {
	if resident(cur) {
		return false
	}
	fresh := s.entryFromRecord(ptr, r, m)
	if !resident(&fresh) {
		return false
	}
	if !s.table.Upsert(key, func(e entry, exists bool) (entry, bool) {
		return fresh, exists && e.seq == cur.seq && e.vptr == cur.vptr && !resident(&e)
	}) {
		s.freeEntryResources(&fresh)
		return false
	}
	return true
}

// resident reports whether e's value has a memory copy, in the enclave or
// in the pool.
func resident(e *entry) bool { return e.inline != nil || e.ref.Valid() }

// vlogGCLoop periodically compacts segments whose dead-byte ratio
// crossed the threshold, driven by the in-enclave live-pointer set.
func (s *Server) vlogGCLoop() {
	t := time.NewTicker(s.cfg.Vlog.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
		}
		if s.vlog.RecoveryPending() {
			continue
		}
		s.VlogGCOnce()
	}
}

// VlogGCOnce runs one compaction scan: every sealed segment at or above
// the dead-ratio threshold is compacted (live records relocated, the
// segment removed). Exposed for tests and tooling; the background loop
// calls it on its interval.
func (s *Server) VlogGCOnce() {
	if s.vlog == nil {
		return
	}
	s.vlogGCRuns.Add(1)
	for _, seg := range s.vlog.Segments() {
		if seg.Active {
			continue
		}
		if seg.Bytes > 0 && seg.DeadRatio() < s.cfg.Vlog.GCThreshold {
			continue
		}
		if err := s.compactSegment(seg.ID); err != nil {
			s.logEvent("value-log compaction failed",
				slog.Int("segment", int(seg.ID)), slog.String("error", err.Error()))
		}
	}
}

// compactSegment relocates a segment's live records to the log head and
// removes the segment. Liveness is decided by the enclave index: a
// record is live iff the entry for its key still points at it. A
// tombstone is carried forward unless it is in the oldest segment or a
// newer put superseded it — dropping it earlier could resurrect a
// deleted key whose older records still exist elsewhere.
func (s *Server) compactSegment(id uint32) error {
	oldest := s.vlog.OldestSegment()
	// The record holding the log's highest issued sequence is never
	// dropped, even dead: sequence numbers only persist through records,
	// and recovery flags a log whose top sequence regressed below the
	// snapshot watermark as a rollback. Anchoring the top record keeps
	// that check sound under aggressive compaction.
	anchor := s.vlog.Seq()
	return s.enclave.Ecall("vlog_gc", func() error {
		err := s.vlog.IterateSegment(id, func(ptr vlog.Ptr, r vlog.Record) error {
			m, merr := s.openVlogMeta(ptr, r)
			if merr != nil {
				return merr
			}
			cur, live := s.table.Get(keyView(r.Key))
			if r.Tombstone {
				if r.Seq != anchor && (live || id == oldest) {
					return nil // superseded, or nothing earlier to resurrect
				}
				return s.relocateRecord(ptr, r, &m, false)
			}
			if live = live && cur.vptr == ptr; live || r.Seq == anchor {
				return s.relocateRecord(ptr, r, &m, live)
			}
			return nil // dead version
		})
		if err != nil {
			return err
		}
		return s.vlog.RemoveSegment(id)
	})
}

// relocateRecord re-appends record r, found at ptr, at the log head under
// its original sequence number, resealing its metadata for the new
// placement. For a live value it then moves the index pointer, only if
// the entry is still the version that was copied, (seq, ptr): a put that
// landed meanwhile holds a newer sequence and keeps the key.
func (s *Server) relocateRecord(ptr vlog.Ptr, r vlog.Record, m *vlogMeta, live bool) error {
	newPtr, _, err := s.vlogAppend(r.Key, m, r.Payload, r.Seq)
	if err != nil {
		return err
	}
	if !live {
		if !r.Tombstone {
			// A dead put carried only as the sequence anchor: keep the
			// bytes reclaimable once a newer record takes over as anchor.
			s.vlog.MarkDead(newPtr)
		}
		return nil
	}
	if !s.table.Upsert(keyView(r.Key), func(e entry, exists bool) (entry, bool) {
		same := exists && e.seq == r.Seq && e.vptr == ptr
		e.vptr = newPtr
		return e, same
	}) {
		// A concurrent write replaced the entry while we copied: the
		// relocated bytes are garbage (the new version owns the key).
		s.vlog.MarkDead(newPtr)
		return nil
	}
	s.vlogGCMoved.Add(1)
	return nil
}

// vlogStats assembles the VlogStats snapshot (nil when disabled).
func (s *Server) vlogStats() *VlogStats {
	if s.vlog == nil {
		return nil
	}
	return &VlogStats{
		Log:            s.vlog.Stats(),
		ReadThroughs:   s.vlogReads.Load(),
		ReadErrors:     s.vlogReadErrors.Load(),
		AuthFailures:   s.vlogAuthFails.Load(),
		GCRuns:         s.vlogGCRuns.Load(),
		GCMovedRecords: s.vlogGCMoved.Load(),
		CachedBytes:    s.pool.Stats().BytesInUse,
	}
}
