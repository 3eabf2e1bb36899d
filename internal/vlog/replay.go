package vlog

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// ReplayStats summarises a recovery pass.
type ReplayStats struct {
	Records      uint64 // structurally valid records visited
	Bytes        uint64 // bytes those records occupy
	TornSegments int    // segments truncated at a damaged record
	TornBytes    int64  // bytes discarded by those truncations
	Torn         error  // first truncation, wrapping ErrTornSegment (nil if clean)
	MaxSeq       uint64 // highest sequence number seen
}

// Replay scans every segment in (segment, offset) order, invoking fn
// for each structurally valid record. A damaged record — torn write,
// bad magic, bad CRC — truncates its segment there and
// replay continues with the next segment; the truncation is reported in
// ReplayStats (wrapping ErrTornSegment) rather than failing recovery,
// because torn tails are the expected residue of a crash. An error from
// fn aborts replay immediately and is returned as-is: that path is for
// cryptographic refusal (tampered sealed metadata), which must stop the
// server, not be truncated around.
//
// After a successful pass the log's sequence counter resumes above
// everything on disk and appends are re-enabled.
func (l *Log) Replay(fn func(ptr Ptr, rec Record) error) (ReplayStats, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ReplayStats{}, ErrClosed
	}
	if !l.recoverDue && l.seq > 0 {
		l.mu.Unlock()
		return ReplayStats{}, fmt.Errorf("vlog: replay after appends have begun")
	}
	ids := make([]uint32, 0, len(l.segs))
	for id := range l.segs {
		ids = append(ids, id)
	}
	l.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var st ReplayStats
	sizes := make(map[uint32]int64, len(ids))
	for _, id := range ids {
		validEnd, err := l.scanSegment(id, &st, fn)
		if err != nil {
			return st, err
		}
		sizes[id] = validEnd
	}

	l.mu.Lock()
	for id, size := range sizes {
		if s, ok := l.segs[id]; ok {
			s.bytes = size
		}
	}
	if st.MaxSeq > l.seq {
		l.seq = st.MaxSeq
	}
	if len(ids) > 0 {
		last := ids[len(ids)-1]
		l.active = last
		l.activeOff = uint64(sizes[last])
	}
	l.recoverDue = false
	l.mu.Unlock()
	return st, nil
}

// scanSegment replays one segment, truncating it at the first damaged
// record. It returns the segment's valid length.
func (l *Log) scanSegment(id uint32, st *ReplayStats, fn func(Ptr, Record) error) (int64, error) {
	f, err := l.fs.OpenRead(l.segmentPath(id))
	if err != nil {
		return 0, fmt.Errorf("vlog: replay open segment %d: %w", id, err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return 0, fmt.Errorf("vlog: replay stat segment %d: %w", id, err)
	}
	// Sequence numbers may legitimately regress mid-stream: GC relocates
	// records into newer segments keeping their original (older) sequence.
	// Only structural damage tears a segment.
	off, damage, err := l.walkSegment(f, id, size, func(ptr Ptr, rec Record) error {
		if err := fn(ptr, rec); err != nil {
			return err
		}
		if rec.Seq > st.MaxSeq {
			st.MaxSeq = rec.Seq
		}
		st.Records++
		st.Bytes += uint64(ptr.Length)
		return nil
	})
	if err != nil {
		return 0, err
	}
	if damage != nil {
		return l.truncateTorn(id, off, size, damage, st)
	}
	return off, nil
}

// segmentWindow is how much of a segment a scan holds in memory at a time
// (a record larger than that gets a window of its own size): replay and
// compaction walk 64 MiB segments without a 64 MiB buffer each.
const segmentWindow = 256 << 10

// walkSegment decodes the first size bytes of segment file f record by
// record, in offset order, through one window buffer that every Record
// handed to fn aliases until fn returns. It stops at the first structural
// damage and reports it with the offset reached (a clean walk ends at
// size); an I/O error or an error from fn aborts the walk and is returned
// as err. The window comes from the log's free list and goes back to it.
func (l *Log) walkSegment(f File, id uint32, size int64, fn func(Ptr, Record) error) (off int64, damage, err error) {
	var buf []byte
	select {
	case buf = <-l.window:
	default:
	}
	defer func() {
		select {
		case l.window <- buf[:0]:
		default:
		}
	}()
	var base int64 // file offset of buf[0]
	for off < size {
		avail := buf[off-base:]
		total, headerOK := recordTotal(avail)
		if (len(avail) < recordHeaderLen || headerOK && len(avail) < total) && base+int64(len(buf)) < size {
			// The window ends inside this record: refill it from here.
			want := min(int64(max(segmentWindow, total)), size-off)
			buf = slices.Grow(buf[:0], int(want))[:want]
			if _, err := f.ReadAt(buf, off); err != nil {
				return off, nil, fmt.Errorf("vlog: read segment %d: %w", id, err)
			}
			base = off
			continue
		}
		rec, n, derr := decodeRecord(avail)
		if derr != nil {
			return off, derr, nil
		}
		if err := fn(Ptr{Segment: id, Offset: uint64(off), Length: uint32(n)}, rec); err != nil {
			return off, nil, err
		}
		off += int64(n)
	}
	return off, nil, nil
}

// truncateTorn cuts segment id down to off, recording the damage.
func (l *Log) truncateTorn(id uint32, off, size int64, cause error, st *ReplayStats) (int64, error) {
	if !errors.Is(cause, ErrTornSegment) {
		cause = fmt.Errorf("%w: %v", ErrTornSegment, cause)
	}
	if err := l.fs.Truncate(l.segmentPath(id), off); err != nil {
		return 0, fmt.Errorf("vlog: truncate torn segment %d: %w", id, err)
	}
	st.TornSegments++
	st.TornBytes += size - off
	if st.Torn == nil {
		st.Torn = fmt.Errorf("segment %d truncated at offset %d (%d bytes dropped): %w", id, off, size-off, cause)
	}
	return off, nil
}

// IterateSegment walks one segment's records in offset order — the GC
// read path. Unlike Replay it never truncates: structural damage in a
// segment that already survived recovery means the segment should be
// left alone, so the damage is returned (wrapping ErrTornSegment).
func (l *Log) IterateSegment(id uint32, fn func(ptr Ptr, rec Record) error) error {
	l.mu.Lock()
	if _, ok := l.segs[id]; !ok {
		l.mu.Unlock()
		return ErrNotFound
	}
	size := l.segs[id].bytes
	l.mu.Unlock()

	f, err := l.fs.OpenRead(l.segmentPath(id))
	if err != nil {
		return fmt.Errorf("%w: segment %d: %v", ErrNotFound, id, err)
	}
	defer f.Close()
	off, damage, err := l.walkSegment(f, id, size, fn)
	if damage != nil {
		return fmt.Errorf("segment %d offset %d: %w", id, off, damage)
	}
	return err
}
