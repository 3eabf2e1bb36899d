package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"precursor/internal/audit"
	"precursor/internal/cryptox"
	"precursor/internal/sgx"
	"precursor/internal/vlog"
	"precursor/internal/wire"
)

// Persistence: sealed snapshots with rollback detection.
//
// The paper notes (§2.1) that "when the data is persistently saved to the
// disk, SGX provides trusted time and monotonic counters to detect state
// rollback attacks and forking", citing ROTE-style prevention techniques
// "which can be integrated into our design". This file is that
// integration: Seal writes the enclave's metadata together with the
// untrusted payload blobs as one authenticated blob under the enclave's
// sealing key, stamped with a trusted monotonic counter; Restore refuses
// snapshots whose counter does not match the trusted counter's current
// value, so replaying an older (or forked) snapshot is detected.

// Errors returned by Seal/Restore.
var (
	ErrSnapshotAuth   = errors.New("precursor: snapshot authentication failed")
	ErrSnapshotFormat = errors.New("precursor: malformed snapshot")
	// ErrSnapshotRollback reports a snapshot older than the trusted
	// monotonic counter — a rollback or fork attack.
	ErrSnapshotRollback = errors.New("precursor: snapshot rollback detected")
)

// snapshotMagic versions the snapshot format.
var snapshotMagic = []byte("PRECURSOR-SNAP-1")

// snapshotV2Sentinel opens the snapshot plaintext. The retired v1 format
// began with the entry count, which can never plausibly be ~4 billion, so
// a v1-shaped plaintext is recognised — and refused as ErrSnapshotFormat.
const snapshotV2Sentinel = 0xFFFFFFFF

// maxSnapshot bounds a sealed snapshot: Restore refuses a larger header
// size, and a repair push a larger total.
const maxSnapshot = 1 << 32

// Seal writes an authenticated, encrypted snapshot of the store to w and
// bumps the trusted monotonic counter. Only a snapshot produced by the
// latest Seal will Restore.
//
// With the value log enabled the snapshot is index-only: per-entry
// metadata, sequence numbers and log pointers, but no pool payloads —
// those are already durable in the log. This is the fix for seal stalls:
// serialization time (and the table lock hold) no longer scales with
// total value bytes, only with entry count. Without a log the snapshot
// is the values' only durable home, so it is full.
func (s *Server) Seal(w io.Writer) error {
	return s.seal(w, s.vlog == nil)
}

func (s *Server) seal(w io.Writer, full bool) error {
	start := time.Now()
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	err := s.enclave.Ecall("seal_state", func() error {
		key, err := s.enclave.SealingKey()
		if err != nil {
			return err
		}
		aead, err := cryptox.NewAEAD(key)
		if err != nil {
			return err
		}
		plain, err := s.serializeState(full)
		if err != nil {
			return err
		}
		counter, err := s.rollback.Increment()
		if err != nil {
			return fmt.Errorf("trusted counter: %w", err)
		}
		var ad [8]byte
		binary.LittleEndian.PutUint64(ad[:], counter)
		sealed, err := aead.Seal(plain, ad[:])
		if err != nil {
			return err
		}
		if _, err := w.Write(snapshotMagic); err != nil {
			return fmt.Errorf("write snapshot: %w", err)
		}
		var hdr [16]byte
		binary.LittleEndian.PutUint64(hdr[:8], counter)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(len(sealed)))
		if _, err := w.Write(hdr[:]); err != nil {
			return fmt.Errorf("write snapshot: %w", err)
		}
		if _, err := w.Write(sealed); err != nil {
			return fmt.Errorf("write snapshot: %w", err)
		}
		s.seals.Add(1)
		s.lastSeal.Store(time.Now().UnixNano())
		return nil
	})
	if err == nil {
		s.lastSealDur.Store(int64(time.Since(start)))
	}
	return err
}

// LastSealDuration returns how long the last successful Seal took end to
// end (0 = never sealed). /metrics exports it as
// precursor_seal_duration_seconds; with the value log's index-only
// snapshots it stays flat as stored bytes grow.
func (s *Server) LastSealDuration() time.Duration {
	return time.Duration(s.lastSealDur.Load())
}

// LastSealTime returns when the last successful Seal completed (zero time
// if this process has never sealed). /metrics and /healthz surface its
// age so operators can alert on stale snapshots.
func (s *Server) LastSealTime() time.Time {
	ns := s.lastSeal.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// SealsTotal counts successful Seal calls over this process's lifetime.
func (s *Server) SealsTotal() uint64 { return s.seals.Load() }

// Restore replaces the store's contents with a snapshot previously
// produced by Seal. The snapshot must authenticate under the enclave's
// sealing key and carry the trusted counter's current value; an older
// counter means the host fed the enclave stale state.
func (s *Server) Restore(r io.Reader) error { return s.restore(r, false) }

// RestoreReplica replaces the store's contents with a snapshot sealed by
// a *peer* replica of the same replica group (same platform, same
// enclave image — hence the same sealing key). The donor's counter may
// be ahead of this replica's; the local trusted counter is fast-forwarded
// to match (sgx.CounterAdvancer), after which the usual counter==current
// invariant holds. A snapshot *behind* the local counter is still
// rejected as a rollback — adopting newer peer state is catch-up,
// adopting older state is the attack Restore exists to stop.
func (s *Server) RestoreReplica(r io.Reader) error { return s.restore(r, true) }

func (s *Server) restore(r io.Reader, allowNewer bool) error {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	// While state is being replaced the server is not ready for traffic;
	// /healthz readiness reports 503 until the restore completes. A
	// server closed mid-restore stays not-ready.
	s.ready.Store(false)
	defer func() {
		select {
		case <-s.stopCh:
		default:
			s.ready.Store(true)
		}
	}()
	return s.enclave.Ecall("restore_state", func() error {
		magic := make([]byte, len(snapshotMagic))
		if _, err := io.ReadFull(r, magic); err != nil {
			return fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
		}
		if string(magic) != string(snapshotMagic) {
			return ErrSnapshotFormat
		}
		var hdr [16]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
		}
		counter := binary.LittleEndian.Uint64(hdr[:8])
		size := binary.LittleEndian.Uint64(hdr[8:])
		if size > maxSnapshot {
			return ErrSnapshotFormat
		}
		// Grow with the data actually present rather than trusting the
		// header's length — a forged size would otherwise make the enclave
		// allocate gigabytes before the first payload byte is read.
		sealed, err := io.ReadAll(io.LimitReader(r, int64(size)))
		if err != nil {
			return fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
		}
		if uint64(len(sealed)) != size {
			return fmt.Errorf("%w: truncated sealed payload", ErrSnapshotFormat)
		}
		// Rollback check first: the counter value is bound into the AEAD's
		// additional data, so a lying header also fails authentication.
		current, err := s.rollback.Value()
		if err != nil {
			return fmt.Errorf("trusted counter: %w", err)
		}
		switch {
		case counter == current:
			// The usual case: the snapshot is the latest seal.
		case counter < current:
			s.cfg.Audit.Add(audit.Record{Kind: audit.KindRollback,
				Detail: fmt.Sprintf("snapshot counter %d behind trusted counter %d", counter, current)})
			return ErrSnapshotRollback
		case !allowNewer:
			s.cfg.Audit.Add(audit.Record{Kind: audit.KindRollback,
				Detail: fmt.Sprintf("snapshot counter %d ahead of trusted counter %d (fork)", counter, current)})
			return ErrSnapshotRollback
		}
		key, err := s.enclave.SealingKey()
		if err != nil {
			return err
		}
		aead, err := cryptox.NewAEAD(key)
		if err != nil {
			return err
		}
		var ad [8]byte
		binary.LittleEndian.PutUint64(ad[:], counter)
		plain, err := aead.Open(sealed, ad[:])
		if err != nil {
			s.cfg.Audit.Add(audit.Record{Kind: audit.KindSnapshotAuth,
				Detail: "snapshot failed authentication under sealing key"})
			return ErrSnapshotAuth
		}
		err = s.deserializeState(plain)
		s.dirty.dropAll() // under sealMu: no set armed before describes what is left
		if err != nil {
			return err
		}
		if counter > current {
			adv, ok := s.rollback.(sgx.CounterAdvancer)
			if !ok {
				return fmt.Errorf("precursor: trusted counter cannot fast-forward for replica restore")
			}
			if err := adv.AdvanceTo(counter); err != nil {
				return fmt.Errorf("trusted counter: %w", err)
			}
		}
		return nil
	})
}

// serializeState flattens the store in the one snapshot format:
//
//	sentinel u32 | ver u8 (2) | flags u8 (bit0: payloads present,
//	bit1: server-encrypted) | watermark u64 | count u32 | entries...
//
// entry: keyLen u16 | key | opKey | owner u32 |
// eflags u8 (1 hasMAC, 2 inline, 4 hasVptr) | mac | seq u64 |
// [seg u32 | off u64 | len u32] | dataLen u32 | data.
//
// Index-only (full=false) snapshots carry enclave-inline values (they
// are enclave state and small) but no pool payloads — an entry's value
// lives in the log, reachable through its pointer. Full snapshots add
// the payload bytes, read back from the log when not cached, and are
// what the repair path streams to joiners — and what a server without a
// value log always writes (watermark and every seq 0, no pointers).
func (s *Server) serializeState(full bool) ([]byte, error) {
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, snapshotV2Sentinel)
	out = append(out, 2)
	flags := byte(0)
	if full {
		flags |= 1
	}
	if s.storage != nil {
		flags |= 2
	}
	out = append(out, flags)
	// The watermark is captured before the table walk so it never
	// exceeds the sequences the snapshot reflects.
	out = binary.LittleEndian.AppendUint64(out, s.vlogTrack.watermark())
	out = binary.LittleEndian.AppendUint32(out, uint32(s.table.Len()))
	var failure error
	s.table.Range(func(key string, b baseEntry, rec uint32) bool {
		e := s.table.load(b, rec)
		if len(key) > wire.MaxKeyLen {
			failure = wire.ErrOversized
			return false
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(len(key)))
		out = append(out, key...)
		out = append(out, e.opKey[:]...)
		out = binary.LittleEndian.AppendUint32(out, e.owner)
		data, inline := []byte(nil), e.inline != nil
		switch {
		case inline:
			data = e.inline.Data
		case !full:
		case e.ref.Valid():
			data, failure = s.pool.Read(e.ref)
		case e.vptr.Valid():
			// From the log record; an inline record's value is in its metadata.
			var m vlogMeta
			rec, err := s.vlog.ReadAt(e.vptr)
			if failure = err; err == nil {
				m, failure = s.openVlogMeta(e.vptr, rec)
			}
			if data, inline = rec.Payload, m.flags&vlogMetaInline != 0; inline {
				data = m.value
			}
		}
		if failure != nil {
			return false
		}
		eflags := byte(0)
		if e.hasMAC {
			eflags |= 1
		}
		if inline {
			eflags |= 2
		}
		if e.vptr.Valid() {
			eflags |= 4
		}
		out = append(out, eflags)
		out = append(out, e.mac[:]...)
		out = binary.LittleEndian.AppendUint64(out, e.seq)
		if e.vptr.Valid() {
			out = binary.LittleEndian.AppendUint32(out, e.vptr.Segment)
			out = binary.LittleEndian.AppendUint64(out, e.vptr.Offset)
			out = binary.LittleEndian.AppendUint32(out, e.vptr.Length)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(data)))
		out = append(out, data...)
		return true
	})
	return out, failure
}

// deserializeState rebuilds state from snapshot plaintext (see
// serializeState). Three cases:
//
//   - index-only + local value log: entries install with their sequence
//     numbers and pointers into this node's own log; the caller must run
//     ReplayVlog next to recover the post-snapshot tail.
//   - full + local value log: a peer's snapshot, or one sealed before this
//     server had a log — its pointers, if any, refer to the donor's log,
//     so every value is re-appended into the local log under fresh
//     sequences (requires a fresh log: appending into one with unreplayed
//     segments fails).
//   - full + no value log: installs values into the pool, pointers ignored.
//
// Index-only without a local log is unrecoverable and refused.
func (s *Server) deserializeState(buf []byte) error {
	if len(buf) < 18 || binary.LittleEndian.Uint32(buf) != snapshotV2Sentinel || buf[4] != 2 {
		return ErrSnapshotFormat
	}
	buf = buf[4:]
	full, serverEnc := buf[1]&1 != 0, buf[1]&2 != 0
	watermark := binary.LittleEndian.Uint64(buf[2:])
	count := binary.LittleEndian.Uint32(buf[10:])
	buf = buf[14:]
	if !full && s.vlog == nil {
		return fmt.Errorf("%w: index-only snapshot needs a value log (set DataDir)", ErrSnapshotFormat)
	}
	if serverEnc != (s.storage != nil) {
		return fmt.Errorf("%w: snapshot of the other payload placement (ServerEncryption)", ErrSnapshotFormat)
	}
	migrate := full && s.vlog != nil

	// Drop current state, returning resources, then refill in place.
	// Restore is intended to run before serving traffic (or during a
	// quiesced window); concurrent requests observe a consistent table at
	// every individual operation but may see a partially restored set.
	s.table.Range(func(_ string, b baseEntry, rec uint32) bool {
		e := s.table.load(b, rec)
		s.releaseEntry(&e)
		return true
	})
	s.table.Clear()

	for i := uint32(0); i < count; i++ {
		if len(buf) < 2 {
			return ErrSnapshotFormat
		}
		keyLen := int(binary.LittleEndian.Uint16(buf))
		buf = buf[2:]
		if keyLen == 0 || keyLen > wire.MaxKeyLen || len(buf) < keyLen+wire.OpKeySize+4+1+wire.MACSize+8 {
			return ErrSnapshotFormat
		}
		rawKey := buf[:keyLen]
		key := keyView(rawKey)
		buf = buf[keyLen:]
		eflags := buf[wire.OpKeySize+4]
		e := entry{baseEntry: baseEntry{owner: binary.LittleEndian.Uint32(buf[wire.OpKeySize:])}}
		copy(e.opKey[:], buf[:wire.OpKeySize])
		buf = buf[wire.OpKeySize+4+1:]
		e.hasMAC = eflags&1 != 0
		inline := eflags&2 != 0
		hasVptr := eflags&4 != 0
		if e.hasMAC && s.table.macs == nil { // no column to hold the MAC
			return fmt.Errorf("%w: hardened-MAC entry needs HardenedMACs", ErrSnapshotFormat)
		}
		copy(e.mac[:], buf[:wire.MACSize])
		e.seq = binary.LittleEndian.Uint64(buf[wire.MACSize:])
		buf = buf[wire.MACSize+8:]
		if hasVptr {
			if len(buf) < 16 {
				return ErrSnapshotFormat
			}
			e.vptr = vlog.Ptr{
				Segment: binary.LittleEndian.Uint32(buf),
				Offset:  binary.LittleEndian.Uint64(buf[4:]),
				Length:  binary.LittleEndian.Uint32(buf[12:]),
			}
			buf = buf[16:]
			if !e.vptr.Valid() {
				return ErrSnapshotFormat
			}
		}
		if len(buf) < 4 {
			return ErrSnapshotFormat
		}
		dataLen := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if dataLen > wire.MaxValueLen+64+wire.MACSize || len(buf) < dataLen {
			return ErrSnapshotFormat
		}
		data := buf[:dataLen]
		buf = buf[dataLen:]

		// An inline value enters the enclave only in inline mode; else it
		// stays in its log record, and without one it is refused.
		var err error
		switch {
		case inline && s.cfg.InlineSmallValues:
			err = s.placeInline(&e, data)
		case inline && (full || !e.vptr.Valid()):
			err = fmt.Errorf("%w: inline entry needs InlineSmallValues", ErrSnapshotFormat)
		case !inline:
			err = s.placeStored(&e, data)
		}
		if err != nil {
			return err
		}
		if migrate {
			// Donor pointers mean nothing here: re-home the value into the
			// local log under a fresh sequence number. An inline value needs
			// no payload bytes — e holds it, the record's metadata carries it.
			e.vptr, e.seq = vlog.Ptr{}, 0
			if e.inline != nil {
				data = nil
			}
			if err := s.vlogPut(rawKey, &e, data); err != nil {
				return fmt.Errorf("migrate %q into value log: %w", key, err)
			}
			s.vlogTrack.applied(e.seq)
		}
		s.table.Upsert(key, func(entry, bool) (entry, bool) { return e, true })
	}
	if len(buf) != 0 {
		return ErrSnapshotFormat
	}
	if s.vlog != nil && !migrate {
		s.vlogWatermark = watermark
		s.vlogTrack.reset(watermark)
	}
	return nil
}

// RollbackCounter exposes the trusted counter value (for diagnostics).
func (s *Server) RollbackCounter() uint64 {
	v, err := s.rollback.Value()
	if err != nil {
		return 0
	}
	return v
}
