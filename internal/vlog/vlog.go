// Package vlog implements Precursor's durable tiered storage: a
// WiscKey-style partitioned value log on untrusted disk.
//
// The paper's central trick — values arrive client-encrypted and MACed,
// so the server enclave never performs payload cryptography — extends
// naturally to the storage path: the very same ciphertext can spill
// verbatim to untrusted media. Only the enclave-held index (key →
// pointer) and a small sealed metadata blob per record need protection.
// The log therefore stores, per record, the client's AEAD ciphertext
// bytes unchanged plus an opaque metadata segment the enclave sealed
// under its sealing key; the log itself performs no cryptography and
// trusts nothing it reads back (every decode is bounds-checked and
// CRC-verified, and the enclave re-authenticates the sealed metadata
// with the record's placement folded into the associated data).
//
// Layout: fixed-size segment files (seg-00000001.vlog, ...) that rotate
// when full. Appends reserve (segment, offset, seq) under a short lock,
// write their record bytes at the reserved offset, then wait on a group
// commit: a single committer goroutine coalesces concurrent appenders
// into one fsync per batch, so a put's durability cost is amortized
// across every trusted thread writing at that moment.
//
// Crash recovery is segment replay in (segment, offset) order. A torn
// tail — a record whose bytes end early or whose CRC fails — is
// truncated and replay continues (ErrTornSegment); cryptographic
// verification of each record is the caller's job via the replay
// callback, which is where tampering (as opposed to torn writes) is
// detected and refused.
package vlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Errors returned by the log.
var (
	// ErrTornSegment reports a structurally damaged record — a torn
	// write from a crash mid-commit. Replay truncates the segment at the
	// damage and continues; the error is surfaced so operators can tell
	// disk corruption (truncate-and-continue) from tampering (refuse).
	ErrTornSegment = errors.New("vlog: torn segment (truncated at damaged record)")
	// ErrRecoveryRequired reports an append against a log whose existing
	// segments have not been replayed yet: appending before recovery
	// would reuse sequence numbers and offsets.
	ErrRecoveryRequired = errors.New("vlog: recovery required before append")
	// ErrClosed reports an operation against a closed log.
	ErrClosed = errors.New("vlog: closed")
	// ErrNotFound reports a read against a segment that does not exist
	// (typically removed by GC between pointer load and read).
	ErrNotFound = errors.New("vlog: segment not found")
	// ErrBadRecord reports a record that failed structural validation on
	// a point read (ReadAt), as opposed to sequential replay.
	ErrBadRecord = errors.New("vlog: bad record")
	// ErrWedged reports a log disabled by an earlier write error: the
	// segment tail is in an unknown state, so further appends could
	// write unrecoverable records.
	ErrWedged = errors.New("vlog: wedged by earlier write error")
)

// Ptr locates a record: the value pointer the enclave index stores
// beside K_operation (segment id, byte offset, full record length).
type Ptr struct {
	Segment uint32
	Length  uint32 // beside Segment: 16 bytes, no padding, in every index entry
	Offset  uint64
}

// Valid reports whether the pointer refers to a record.
func (p Ptr) Valid() bool { return p.Length > 0 }

// String renders the pointer for logs and errors.
func (p Ptr) String() string {
	return fmt.Sprintf("seg=%d off=%d len=%d", p.Segment, p.Offset, p.Length)
}

// Record is one decoded log record. Key and Payload alias read buffers
// and must be copied if retained. Meta is the enclave-sealed metadata
// blob, opaque to the log.
type Record struct {
	Seq       uint64
	Tombstone bool
	Key       []byte
	Meta      []byte
	Payload   []byte
}

// Config tunes a Log.
type Config struct {
	// Dir is the directory segments live in; required.
	Dir string
	// SegmentBytes is the rotation threshold (default 64 MiB). A record
	// larger than the threshold still fits: it gets a segment to itself.
	SegmentBytes int64
	// FS overrides the filesystem (default: the OS). Tests inject a
	// seeded crash-simulating MemFS here.
	FS FS
}

// DefaultSegmentBytes is the segment rotation threshold when
// Config.SegmentBytes is zero.
const DefaultSegmentBytes = 64 << 20

// Stats is a snapshot of log activity.
type Stats struct {
	Segments        int    // segment files currently on disk
	ActiveSegment   uint32 // id of the segment appends go to (0 = none yet)
	AppendedRecords uint64 // records appended over the log's lifetime
	AppendedBytes   uint64 // bytes appended over the log's lifetime
	LiveBytes       int64  // bytes in segments minus bytes marked dead
	DeadBytes       int64  // bytes whose records were superseded or deleted
	GroupCommits    uint64 // fsync batches issued by the committer
	SyncedAppends   uint64 // appends covered by those batches
	Reads           uint64 // point reads (ReadAt)
	GCReclaimed     uint64 // bytes reclaimed by RemoveSegment
	GCSegments      uint64 // segments removed by GC
}

// BatchAvg returns the mean appends per group commit (0 when no commit
// has happened yet) — the fsync-coalescing factor.
func (s Stats) BatchAvg() float64 {
	if s.GroupCommits == 0 {
		return 0
	}
	return float64(s.SyncedAppends) / float64(s.GroupCommits)
}

// segState is the per-segment bookkeeping the log keeps in memory.
type segState struct {
	bytes int64 // bytes written to the segment
	dead  int64 // bytes of superseded records
}

// syncReq is one appender waiting for its record's group commit.
type syncReq struct {
	done chan error
}

// counters are the lifetime activity counts behind Stats, bumped without
// a lock on the append and read paths.
type counters struct {
	appendedRecords, appendedBytes atomic.Uint64
	groupCommits, syncedAppends    atomic.Uint64
	reads                          atomic.Uint64
	gcReclaimed, gcSegments        atomic.Uint64
	deadBytes                      atomic.Int64
}

// maxRetainedRecord bounds a record buffer kept between uses — the log's
// own between appends, a reader's between ReadInto calls: one that grew
// past it for a single large value is dropped after that record.
const maxRetainedRecord = 64 << 10

// Log is a partitioned value log. All methods are safe for concurrent
// use.
type Log struct {
	cfg Config
	fs  FS

	mu         sync.Mutex
	recoverDue bool // segments exist but have not been replayed
	closed     bool
	wedged     bool
	active     uint32 // current append segment id (0 = none created yet)
	activeOff  uint64
	seq        uint64
	writers    map[uint32]File
	dirty      map[uint32]File // files with unsynced writes
	syncing    map[uint32]File // files of the group commit in progress (or just done): the committer fsyncs them outside mu
	segs       map[uint32]*segState
	// rec is the record being appended, encoded in place and handed to
	// WriteAt before mu is released. It is untrusted memory: the enclave
	// appends only sealed metadata to it.
	rec []byte

	readMu  sync.Mutex
	readers map[uint32]File
	// window is a one-slot free list of segment walk buffers (walkSegment):
	// replay and compaction reuse one window instead of growing a fresh one
	// per segment, and two walks at once take one each, never the same.
	window chan []byte

	syncCh chan syncReq
	stopCh chan struct{}
	doneCh chan struct{}
	// doneFree recycles appenders' completion channels (a sync.Pool would
	// be emptied by every second GC cycle). A channel goes back only after
	// its appender received the committer's one send; one whose appender
	// left through stopCh may still be queued or written to and is dropped.
	doneMu   sync.Mutex
	doneFree []chan error
	stats    counters
}

// Open creates or opens the log in cfg.Dir. Existing segments are
// listed (not read): if any are present the log refuses appends until
// Replay has run, so sequence numbers and offsets resume safely above
// everything on disk.
func Open(cfg Config) (*Log, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("vlog: Config.Dir is required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	fs := cfg.FS
	if fs == nil {
		fs = OSFS{}
	}
	if err := fs.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("vlog: %w", err)
	}
	l := &Log{
		cfg:     cfg,
		fs:      fs,
		writers: make(map[uint32]File),
		dirty:   make(map[uint32]File),
		segs:    make(map[uint32]*segState),
		readers: make(map[uint32]File),
		window:  make(chan []byte, 1),
		syncCh:  make(chan syncReq, 1024),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	ids, err := l.listSegments()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		size, err := l.segmentSize(id)
		if err != nil {
			return nil, err
		}
		l.segs[id] = &segState{bytes: size}
		if id > l.active {
			l.active = id
		}
	}
	l.recoverDue = len(ids) > 0
	go l.committer()
	return l, nil
}

// segmentName renders a segment id as its file name.
func segmentName(id uint32) string { return fmt.Sprintf("seg-%08d.vlog", id) }

// segmentPath renders a segment id as its path under the log dir.
func (l *Log) segmentPath(id uint32) string {
	return filepath.Join(l.cfg.Dir, segmentName(id))
}

// listSegments returns the on-disk segment ids in ascending order.
func (l *Log) listSegments() ([]uint32, error) {
	names, err := l.fs.List(l.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("vlog: list segments: %w", err)
	}
	var ids []uint32
	for _, name := range names {
		var id uint32
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".vlog") {
			continue
		}
		if _, err := fmt.Sscanf(name, "seg-%08d.vlog", &id); err != nil || id == 0 {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// segmentSize returns a segment's current byte size.
func (l *Log) segmentSize(id uint32) (int64, error) {
	f, err := l.fs.OpenRead(l.segmentPath(id))
	if err != nil {
		return 0, fmt.Errorf("vlog: open %s: %w", segmentName(id), err)
	}
	defer f.Close()
	return f.Size()
}

// SealFunc produces the enclave-sealed metadata of the record placed at
// ptr with sequence number seq — the hook that lets the enclave fold
// segment and offset into the metadata's associated data. It appends the
// sealed bytes to dst, which is the log's own record buffer (untrusted
// memory: nothing but the sealed bytes may be written to it), and returns
// the extended slice.
type SealFunc func(dst []byte, ptr Ptr, seq uint64) ([]byte, error)

// AppendSealed reserves placement for a record, has seal append the
// metadata for that placement to the record in place, writes the record,
// and blocks until the record's group commit has fsynced. It returns the
// record's pointer and sequence number only after the bytes are durable —
// the server acks a put no earlier than this return.
//
// metaLen must equal the number of bytes seal appends exactly: placement
// is reserved before the metadata exists, so its size is declared up
// front.
//
// at is zero for a new record, which draws the next sequence number (the
// first is 1). A nonzero at is the GC relocation path: the record keeps
// that previously issued number and the log's counter is not advanced. A
// relocated record is the same logical version of its key, so it must
// keep its version: replay applies records newest-sequence-wins, and a
// relocation that drew a fresh sequence could outrank a genuinely newer
// write it raced with.
func (l *Log) AppendSealed(key, payload []byte, tombstone bool, metaLen int, at uint64, seal SealFunc) (Ptr, uint64, error) {
	recLen := recordLen(len(key), metaLen, len(payload))

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return Ptr{}, 0, ErrClosed
	}
	if l.wedged {
		l.mu.Unlock()
		return Ptr{}, 0, ErrWedged
	}
	if l.recoverDue {
		l.mu.Unlock()
		return Ptr{}, 0, ErrRecoveryRequired
	}
	// Rotate when the record would cross the threshold (or no segment
	// exists yet). The first record of a fresh segment always fits, so
	// oversized records get a segment to themselves.
	if l.active == 0 || (l.activeOff > 0 && l.activeOff+uint64(recLen) > uint64(l.cfg.SegmentBytes)) {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return Ptr{}, 0, err
		}
	}
	w, err := l.writerLocked(l.active)
	if err != nil {
		l.mu.Unlock()
		return Ptr{}, 0, err
	}
	seq := at
	if seq == 0 {
		l.seq++
		seq = l.seq
	}
	ptr := Ptr{Segment: l.active, Offset: l.activeOff, Length: uint32(recLen)}
	l.activeOff += uint64(recLen)
	l.segs[l.active].bytes += int64(recLen)

	// Seal and write while holding the lock: records land at their
	// reserved offsets in reservation order, so a crash tears only the
	// tail, never a hole. The sealed metadata is ~100 B of AEAD work —
	// cheap next to the fsync this append is about to wait for.
	if cap(l.rec) < recLen {
		l.rec = make([]byte, 0, recLen)
	}
	buf := appendRecordHead(l.rec[:0], seq, tombstone, key, metaLen, len(payload))
	buf, err = seal(buf, ptr, seq)
	if sealed := len(buf) - recordHeaderLen - len(key); err == nil && sealed != metaLen {
		err = fmt.Errorf("vlog: sealMeta returned %d bytes, declared %d", sealed, metaLen)
	}
	if err != nil {
		// The reserved region is never written: the tail is torn at this
		// record, and anything an interleaved later append wrote past it
		// would be unreachable by replay. Wedge the log rather than risk
		// acking writes that recovery cannot see.
		l.wedged = true
		l.mu.Unlock()
		return Ptr{}, 0, err
	}
	buf = finishRecord(buf, 0, payload)
	_, err = w.WriteAt(buf, int64(ptr.Offset))
	if cap(buf) <= maxRetainedRecord {
		l.rec = buf
	} else {
		l.rec = nil
	}
	if err != nil {
		l.wedged = true
		l.mu.Unlock()
		return Ptr{}, 0, fmt.Errorf("vlog: write: %w", err)
	}
	l.dirty[ptr.Segment] = w
	l.mu.Unlock()

	l.stats.appendedRecords.Add(1)
	l.stats.appendedBytes.Add(uint64(recLen))

	// Group commit: wait for the committer's next fsync batch.
	done := l.doneChan()
	select {
	case l.syncCh <- syncReq{done: done}:
	case <-l.stopCh:
		return Ptr{}, 0, ErrClosed
	}
	select {
	case err = <-done:
		l.doneMu.Lock()
		l.doneFree = append(l.doneFree, done)
		l.doneMu.Unlock()
		if err != nil {
			return Ptr{}, 0, err
		}
	case <-l.stopCh:
		return Ptr{}, 0, ErrClosed
	}
	return ptr, seq, nil
}

// Append is AppendSealed of a new record for a caller that returns the
// sealed metadata as a slice of its own, which is copied into the record.
func (l *Log) Append(key, payload []byte, tombstone bool, metaLen int, sealMeta func(ptr Ptr, seq uint64) ([]byte, error)) (Ptr, uint64, error) {
	return l.AppendSealed(key, payload, tombstone, metaLen, 0, func(dst []byte, ptr Ptr, seq uint64) ([]byte, error) {
		meta, err := sealMeta(ptr, seq)
		return append(dst, meta...), err
	})
}

// doneChan returns an empty completion channel, recycled if one is free.
func (l *Log) doneChan() chan error {
	l.doneMu.Lock()
	defer l.doneMu.Unlock()
	if n := len(l.doneFree); n > 0 {
		done := l.doneFree[n-1]
		l.doneFree = l.doneFree[:n-1]
		return done
	}
	return make(chan error, 1)
}

// rotateLocked switches appends to a fresh segment. Called with mu held.
func (l *Log) rotateLocked() error {
	next := l.active + 1
	w, err := l.fs.OpenWrite(l.segmentPath(next))
	if err != nil {
		return fmt.Errorf("vlog: rotate: %w", err)
	}
	// The new file's directory entry must be durable before any record
	// in it is acked: fsyncing only the file leaves a crash free to drop
	// the file itself, silently losing the log tail.
	if err := l.fs.SyncDir(l.cfg.Dir); err != nil {
		_ = w.Close()
		return fmt.Errorf("vlog: rotate: sync dir: %w", err)
	}
	l.writers[next] = w
	l.active = next
	l.activeOff = 0
	l.segs[next] = &segState{}
	// Retire write handles for full segments with nothing left unsynced.
	// A file the committer may be fsyncing right now stays open too —
	// closing it under the fsync would fail the commit and wedge the log —
	// and is retired by a later rotation.
	for id, old := range l.writers {
		_, dirty := l.dirty[id]
		_, syncing := l.syncing[id]
		if id != next && !dirty && !syncing {
			_ = old.Close()
			delete(l.writers, id)
		}
	}
	return nil
}

// writerLocked returns the write handle for segment id, opening it if
// needed. Called with mu held.
func (l *Log) writerLocked(id uint32) (File, error) {
	if w, ok := l.writers[id]; ok {
		return w, nil
	}
	w, err := l.fs.OpenWrite(l.segmentPath(id))
	if err != nil {
		return nil, fmt.Errorf("vlog: open segment %d: %w", id, err)
	}
	l.writers[id] = w
	return w, nil
}

// committer is the group-commit loop: it drains all waiting appenders,
// fsyncs every dirty segment once, and releases the whole batch.
func (l *Log) committer() {
	defer close(l.doneCh)
	// The batch slice is reused, and two dirty maps take turns: one
	// collects under mu as l.dirty while the other is fsynced as l.syncing;
	// both change hands, and are written, only under mu.
	var batch []syncReq
	spare := make(map[uint32]File)
	for {
		batch = batch[:0]
		select {
		case <-l.stopCh:
			return
		case first := <-l.syncCh:
			batch = append(batch, first)
		}
		// Coalesce: everyone whose write already landed shares the fsync.
	drain:
		for {
			select {
			case r := <-l.syncCh:
				batch = append(batch, r)
			default:
				break drain
			}
		}
		l.mu.Lock()
		wedged := l.wedged
		clear(spare) // the previous commit's files
		dirty := l.dirty
		l.dirty, l.syncing = spare, dirty
		l.mu.Unlock()
		var err error
		if wedged {
			err = ErrWedged
		} else {
			for _, f := range dirty {
				if e := f.Sync(); e != nil && err == nil {
					err = fmt.Errorf("vlog: fsync: %w", e)
				}
			}
			if err != nil {
				// A failed fsync leaves the earlier batch's pages in an
				// unknown state: the kernel may drop them after reporting
				// the error, so a later successful fsync would ack records
				// *behind* a possibly-torn predecessor — records replay
				// would then truncate away. Wedge before releasing the
				// batch so no subsequent append can be acked.
				l.mu.Lock()
				l.wedged = true
				l.mu.Unlock()
			}
		}
		spare = dirty
		if err == nil {
			l.stats.groupCommits.Add(1)
			l.stats.syncedAppends.Add(uint64(len(batch)))
		}
		for _, r := range batch {
			r.done <- err
		}
	}
}

// ReadAt reads and structurally validates the record at ptr, returning
// its decoded form. The caller owns cryptographic verification of
// Meta; Key and Payload alias a fresh buffer, the caller's to keep.
func (l *Log) ReadAt(ptr Ptr) (Record, error) {
	rec, _, err := l.ReadInto(nil, ptr)
	return rec, err
}

// ReadInto is ReadAt into the caller's buffer: the record is read into
// buf, grown when it does not fit, and Key, Meta and Payload alias the
// returned buffer, which the caller passes to its next ReadInto. A buffer
// that grew past maxRetainedRecord for one large record is not returned.
// The bytes are untrusted, like every byte the log reads back.
func (l *Log) ReadInto(buf []byte, ptr Ptr) (Record, []byte, error) {
	if !ptr.Valid() || ptr.Length < recordHeaderLen {
		return Record{}, buf, ErrBadRecord
	}
	f, err := l.reader(ptr.Segment)
	if err != nil {
		return Record{}, buf, err
	}
	buf = slices.Grow(buf[:0], int(ptr.Length))[:ptr.Length]
	keep := buf
	if cap(buf) > maxRetainedRecord {
		keep = nil
	}
	if _, err := f.ReadAt(buf, int64(ptr.Offset)); err != nil {
		// A concurrent RemoveSegment closes cached read handles; the
		// failure then means "segment gone", not "record damaged", and
		// callers holding a stale pointer should re-fetch it.
		if !l.segmentLive(ptr.Segment) {
			return Record{}, keep, fmt.Errorf("%w: segment %d", ErrNotFound, ptr.Segment)
		}
		return Record{}, keep, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	rec, n, err := decodeRecord(buf)
	if err != nil || n != int(ptr.Length) {
		if !l.segmentLive(ptr.Segment) {
			return Record{}, keep, fmt.Errorf("%w: segment %d", ErrNotFound, ptr.Segment)
		}
		return Record{}, keep, ErrBadRecord
	}
	l.stats.reads.Add(1)
	return rec, keep, nil
}

// segmentLive reports whether segment id is still part of the log.
func (l *Log) segmentLive(id uint32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.segs[id]
	return ok
}

// reader returns a cached read handle for segment id.
func (l *Log) reader(id uint32) (File, error) {
	l.readMu.Lock()
	defer l.readMu.Unlock()
	if f, ok := l.readers[id]; ok {
		return f, nil
	}
	f, err := l.fs.OpenRead(l.segmentPath(id))
	if err != nil {
		return nil, fmt.Errorf("%w: segment %d: %v", ErrNotFound, id, err)
	}
	l.readers[id] = f
	return f, nil
}

// MarkDead records that the record at ptr has been superseded (by an
// overwrite, delete or GC move): its bytes are reclaimable once their
// segment's live ratio drops below the GC threshold.
func (l *Log) MarkDead(ptr Ptr) {
	if !ptr.Valid() {
		return
	}
	l.mu.Lock()
	st, ok := l.segs[ptr.Segment]
	if ok {
		st.dead += int64(ptr.Length)
	}
	l.mu.Unlock()
	if !ok {
		// The segment is already removed (GC finished first, or the
		// pointer predates a crash that compacted it away): nothing left
		// to account.
		return
	}
	l.stats.deadBytes.Add(int64(ptr.Length))
}

// SegmentStat describes one segment for GC candidate selection.
type SegmentStat struct {
	ID     uint32
	Bytes  int64
	Dead   int64
	Active bool // the append segment is never a GC candidate
}

// DeadRatio returns the fraction of the segment's bytes marked dead.
func (s SegmentStat) DeadRatio() float64 {
	if s.Bytes <= 0 {
		return 0
	}
	return float64(s.Dead) / float64(s.Bytes)
}

// Segments returns per-segment stats in ascending id order.
func (l *Log) Segments() []SegmentStat {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SegmentStat, 0, len(l.segs))
	for id, st := range l.segs {
		out = append(out, SegmentStat{ID: id, Bytes: st.bytes, Dead: st.dead, Active: id == l.active})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// OldestSegment returns the lowest live segment id (0 when empty).
func (l *Log) OldestSegment() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var oldest uint32
	for id := range l.segs {
		if oldest == 0 || id < oldest {
			oldest = id
		}
	}
	return oldest
}

// RemoveSegment deletes a fully-compacted segment from disk and drops
// its bookkeeping. The active segment cannot be removed.
func (l *Log) RemoveSegment(id uint32) error {
	l.mu.Lock()
	if id == l.active {
		l.mu.Unlock()
		return fmt.Errorf("vlog: cannot remove active segment %d", id)
	}
	st, ok := l.segs[id]
	if !ok {
		l.mu.Unlock()
		return ErrNotFound
	}
	bytes := st.bytes
	dead := st.dead
	delete(l.segs, id)
	if w, ok := l.writers[id]; ok {
		_ = w.Close()
		delete(l.writers, id)
	}
	delete(l.dirty, id)
	l.mu.Unlock()

	l.readMu.Lock()
	if r, ok := l.readers[id]; ok {
		_ = r.Close()
		delete(l.readers, id)
	}
	l.readMu.Unlock()

	if err := l.fs.Remove(l.segmentPath(id)); err != nil {
		return fmt.Errorf("vlog: remove segment %d: %w", id, err)
	}
	if err := l.fs.SyncDir(l.cfg.Dir); err != nil {
		return fmt.Errorf("vlog: remove segment %d: sync dir: %w", id, err)
	}
	l.stats.gcReclaimed.Add(uint64(bytes))
	l.stats.gcSegments.Add(1)
	l.stats.deadBytes.Add(-dead)
	return nil
}

// Stats returns a snapshot of log activity.
func (l *Log) Stats() Stats {
	st := Stats{
		AppendedRecords: l.stats.appendedRecords.Load(),
		AppendedBytes:   l.stats.appendedBytes.Load(),
		// Synced appends first: read the other way round, a commit landing
		// between the two loads would show appends without their commit.
		SyncedAppends: l.stats.syncedAppends.Load(),
		GroupCommits:  l.stats.groupCommits.Load(),
		Reads:         l.stats.reads.Load(),
		GCReclaimed:   l.stats.gcReclaimed.Load(),
		GCSegments:    l.stats.gcSegments.Load(),
		DeadBytes:     l.stats.deadBytes.Load(),
	}
	l.mu.Lock()
	st.Segments = len(l.segs)
	st.ActiveSegment = l.active
	var total int64
	for _, s := range l.segs {
		total += s.bytes
	}
	st.LiveBytes = total - st.DeadBytes
	l.mu.Unlock()
	return st
}

// Seq returns the highest sequence number issued so far.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// EnsureSeq raises the log's sequence counter to at least min, so that
// future appends draw numbers above it. Recovery uses this to keep
// sequences above a trusted snapshot watermark even when every on-disk
// record below it has been garbage-collected away.
func (l *Log) EnsureSeq(min uint64) {
	l.mu.Lock()
	if min > l.seq {
		l.seq = min
	}
	l.mu.Unlock()
}

// RecoveryPending reports whether the log has on-disk segments that
// have not been replayed yet (appends are refused until Replay runs).
func (l *Log) RecoveryPending() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recoverDue
}

// Close syncs dirty segments and stops the committer. Appends after
// Close fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	dirty := l.dirty
	l.dirty = make(map[uint32]File)
	writers := l.writers
	l.writers = make(map[uint32]File)
	l.mu.Unlock()

	close(l.stopCh)
	<-l.doneCh

	var err error
	for _, f := range dirty {
		if e := f.Sync(); e != nil && err == nil {
			err = e
		}
	}
	for _, f := range writers {
		if e := f.Close(); e != nil && err == nil {
			err = e
		}
	}
	l.readMu.Lock()
	for id, f := range l.readers {
		_ = f.Close()
		delete(l.readers, id)
	}
	l.readMu.Unlock()
	return err
}

// crcTable is the Castagnoli table used for record checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record framing limits: decoders reject anything beyond these before
// allocating, so forged length headers cannot balloon memory.
const (
	recordMagic     = 0x50564c31 // "PVL1"
	recordHeaderLen = 4 + 4 + 8 + 1 + 2 + 2 + 4
	flagTombstone   = 1

	// MaxKeyBytes bounds a record's key (matches the wire limit).
	MaxKeyBytes = 4096
	// MaxMetaBytes bounds the sealed metadata blob.
	MaxMetaBytes = 8192
	// MaxPayloadBytes bounds a record payload (1 MiB value + framing
	// slack, matching the wire-format ceiling).
	MaxPayloadBytes = 1<<20 + 64 + 16
)

// recordLen returns the encoded size of a record.
func recordLen(keyLen, metaLen, payLen int) int {
	return recordHeaderLen + keyLen + metaLen + payLen
}

// encodeRecord appends the record encoding to dst:
//
//	magic u32 | crc u32 | seq u64 | flags u8 | keyLen u16 | metaLen u16 |
//	payLen u32 | key | meta | payload
//
// The CRC (Castagnoli) covers everything after the crc field. It is an
// integrity check against torn writes and bit rot only — authenticity
// comes from the enclave-sealed meta, whose associated data binds the
// record's placement.
func encodeRecord(dst []byte, seq uint64, tombstone bool, key, meta, payload []byte) []byte {
	start := len(dst)
	dst = appendRecordHead(dst, seq, tombstone, key, len(meta), len(payload))
	dst = append(dst, meta...)
	return finishRecord(dst, start, payload)
}

// appendRecordHead appends a record up to and including its key; the
// sealed metadata goes next, in place, then finishRecord.
func appendRecordHead(dst []byte, seq uint64, tombstone bool, key []byte, metaLen, payLen int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, recordMagic)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // crc patched by finishRecord
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	var flags byte
	if tombstone {
		flags |= flagTombstone
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(key)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(metaLen))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payLen))
	return append(dst, key...)
}

// finishRecord appends the payload to the record that starts at
// dst[start] and patches its CRC.
func finishRecord(dst []byte, start int, payload []byte) []byte {
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start+8:], crcTable)
	binary.LittleEndian.PutUint32(dst[start+4:start+8], crc)
	return dst
}

// recordTotal reads the header at the start of buf: the encoded length of
// the record it announces, and whether the header is whole and plausible
// (magic, lengths within the framing limits). It checks no CRC.
func recordTotal(buf []byte) (total int, ok bool) {
	if len(buf) < recordHeaderLen || binary.LittleEndian.Uint32(buf) != recordMagic {
		return 0, false
	}
	keyLen := int(binary.LittleEndian.Uint16(buf[17:]))
	metaLen := int(binary.LittleEndian.Uint16(buf[19:]))
	payLen := int(binary.LittleEndian.Uint32(buf[21:]))
	if keyLen == 0 || keyLen > MaxKeyBytes || metaLen > MaxMetaBytes || payLen > MaxPayloadBytes {
		return 0, false
	}
	return recordLen(keyLen, metaLen, payLen), true
}

// decodeRecord parses one record at the start of buf, returning it and
// the encoded length consumed. Slices alias buf.
func decodeRecord(buf []byte) (Record, int, error) {
	total, ok := recordTotal(buf)
	if !ok || len(buf) < total {
		return Record{}, 0, ErrTornSegment
	}
	crc := binary.LittleEndian.Uint32(buf[4:])
	seq := binary.LittleEndian.Uint64(buf[8:])
	flags := buf[16]
	keyLen := int(binary.LittleEndian.Uint16(buf[17:]))
	metaLen := int(binary.LittleEndian.Uint16(buf[19:]))
	if crc32.Checksum(buf[8:total], crcTable) != crc {
		return Record{}, 0, ErrTornSegment
	}
	rest := buf[recordHeaderLen:total]
	rec := Record{
		Seq:       seq,
		Tombstone: flags&flagTombstone != 0,
		Key:       rest[:keyLen],
		Meta:      rest[keyLen : keyLen+metaLen],
		Payload:   rest[keyLen+metaLen:],
	}
	return rec, total, nil
}
