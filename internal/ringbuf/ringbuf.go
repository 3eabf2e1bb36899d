// Package ringbuf implements the per-client circular buffers Precursor
// exchanges requests and responses through (§3.5, §3.8).
//
// Each direction is a ring of fixed-size slots living in the *receiver's*
// registered memory: clients write requests into a ring in server memory
// with one-sided RDMA WRITEs, and the server's trusted threads poll that
// memory; responses flow through a mirror-image ring in client memory.
// No sends, remote completions or interrupts are involved — polling plain
// memory is what makes the receive path ecall-free.
//
// Every slot carries a start sign, an explicit length, and an end sign
// (the paper's start_sign/end_sign operands) so the poller can detect a
// completely written request. Flow control is credit-based: the reader
// periodically writes its cumulative consumed-count into an 8-byte credit
// counter in the writer's memory — again with a one-sided write ("these
// threads update clients about the newly available buffer slots using
// one-sided writes") — and the writer never lets sent−consumed exceed the
// ring size, so a client can compute the available space locally (§3.7).
package ringbuf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"precursor/internal/rdma"
)

// Framing constants.
const (
	// StartSign marks a slot whose write has begun.
	StartSign byte = 0xA5
	// EndSign marks a slot whose write is complete.
	EndSign byte = 0x5A
	// headerLen is sign(1) + length(4).
	headerLen = 5
	// Overhead is the per-slot framing cost in bytes.
	Overhead = headerLen + 1
)

// Errors returned by ring operations.
var (
	ErrTooLarge = errors.New("ringbuf: message exceeds slot capacity")
	ErrCorrupt  = errors.New("ringbuf: corrupt frame in ring slot")
	ErrRemote   = errors.New("ringbuf: remote write failed")
	ErrRingFull = errors.New("ringbuf: ring full")
)

// RingBytes returns the memory needed for a ring of slots×slotSize.
func RingBytes(slots, slotSize int) int { return slots * slotSize }

// CreditBytes is the size of a credit counter region.
const CreditBytes = 8

// Writer is the sending half of a ring: it lives on the machine that
// issues one-sided writes into the remote ring memory.
type Writer struct {
	mu          sync.Mutex
	conn        rdma.Conn
	ringRKey    uint32
	ringBase    uint64
	slots       uint64
	slotSize    int
	credit      *rdma.MemoryRegion // local; remote reader deposits consumed-count here
	sent        uint64
	consumed    uint64 // last credit value accepted from the peer
	signalEvery uint64
	wrID        uint64
	frame       []byte // reusable staging buffer

	stalls atomic.Uint64 // TryWrite calls that found no credit
}

// WriterConfig configures a Writer.
type WriterConfig struct {
	Conn     rdma.Conn
	RingRKey uint32
	RingBase uint64
	Slots    int
	SlotSize int
	// Credit is the local region the remote reader writes consumed counts
	// into (offset 0, 8 bytes little-endian).
	Credit *rdma.MemoryRegion
	// SignalEvery requests a send completion every N writes (selective
	// signaling, §4); 0 means every 16th.
	SignalEvery int
}

// NewWriter creates the sending half of a ring.
func NewWriter(cfg WriterConfig) (*Writer, error) {
	if cfg.Slots <= 0 || cfg.SlotSize <= Overhead {
		return nil, fmt.Errorf("ringbuf: invalid geometry %d×%d", cfg.Slots, cfg.SlotSize)
	}
	if cfg.Credit == nil || cfg.Credit.Len() < CreditBytes {
		return nil, errors.New("ringbuf: credit region missing or too small")
	}
	se := uint64(cfg.SignalEvery)
	if se == 0 {
		se = 16
	}
	return &Writer{
		conn:        cfg.Conn,
		ringRKey:    cfg.RingRKey,
		ringBase:    cfg.RingBase,
		slots:       uint64(cfg.Slots),
		slotSize:    cfg.SlotSize,
		credit:      cfg.Credit,
		signalEvery: se,
		frame:       make([]byte, cfg.SlotSize),
	}, nil
}

// MaxMessage returns the largest message the ring accepts.
func (w *Writer) MaxMessage() int { return w.slotSize - Overhead }

// Available returns the writer's current view of free slots.
func (w *Writer) Available() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.availableLocked()
}

// availableLocked reads the credit word as what it is — outside input,
// written by an untrusted peer over an untrusted wire. A cumulative
// consumed-count can only lie in [last accepted, sent]; anything else (a
// flipped bit, a replayed or forged write) is ignored in favour of the
// last accepted value, so sent−consumed can never underflow and leave
// the writer without credit for good. The reader's next credit write
// overwrites the bad word. The credit region's doorbell is loaded first,
// the acquire of every host read of registered memory: the reader cleared
// the slots it counted before the count landed and bumped the word.
func (w *Writer) availableLocked() int {
	w.credit.Doorbell()
	if c := w.credit.ReadUint64(0); c >= w.consumed && c <= w.sent {
		w.consumed = c
	}
	return int(w.slots - (w.sent - w.consumed))
}

// TryWrite attempts to place msg into the next slot. It returns false —
// without blocking — when the ring has no credit.
func (w *Writer) TryWrite(msg []byte) (bool, error) {
	if len(msg) > w.MaxMessage() {
		return false, ErrTooLarge
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.availableLocked() <= 0 {
		w.stalls.Add(1)
		return false, nil
	}
	slot := w.sent % w.slots
	off := w.ringBase + slot*uint64(w.slotSize)

	frame := w.frame[:headerLen+len(msg)+1]
	frame[0] = StartSign
	binary.LittleEndian.PutUint32(frame[1:5], uint32(len(msg)))
	copy(frame[headerLen:], msg)
	frame[headerLen+len(msg)] = EndSign

	w.wrID++
	signaled := w.wrID%w.signalEvery == 0
	if err := w.conn.PostWrite(w.wrID, w.ringRKey, off, frame, signaled); err != nil {
		return false, fmt.Errorf("post write: %w", err)
	}
	// Drain completions opportunistically; an error completion means the
	// remote rejected our access (revocation, bad rkey, …).
	for _, c := range w.conn.PollSend(16) {
		if c.Status != rdma.StatusOK {
			return false, fmt.Errorf("%w: %v", ErrRemote, c.Err)
		}
	}
	w.sent++
	return true, nil
}

// Stalls counts TryWrite attempts that found the ring without credit —
// each unit is one spin of a credit-wait loop, so the counter measures
// backpressure pressure, not distinct operations. Safe to read
// concurrently with writes.
func (w *Writer) Stalls() uint64 { return w.stalls.Load() }

// WriteDeadline places msg into the ring, waiting for credit — the
// flow-control loop of §3.7 — until deadline: it returns ErrRingFull once
// that passes. The wait is always bounded: a peer whose ring never drains
// (wedged, vanished, or malicious) returns no credit, and TryWrite alone
// never touches the conn, so an unbounded wait would block on a dead ring
// forever. It sleeps between attempts: whoever waits here is off the fast
// path already, and credit arrives via a remote write, which on the TCP
// fabric needs the netpoller to run.
func (w *Writer) WriteDeadline(msg []byte, deadline time.Time) error {
	wait := Ladder{Sleep: MinSleep}
	for {
		ok, err := w.TryWrite(msg)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if !wait.Wait(deadline) {
			return ErrRingFull
		}
	}
}

// Reader is the polling half of a ring: it lives on the machine whose
// memory holds the ring.
type Reader struct {
	mu          sync.Mutex
	ring        *rdma.MemoryRegion
	base        int
	slots       uint64
	slotSize    int
	conn        rdma.Conn
	creditRKey  uint32
	creditOff   uint64
	creditEvery uint64
	readIdx     uint64
	consumed    uint64
	lastFlushed uint64
	wrID        uint64
	hdr         []byte
	// idleBell is one more than the ring region's doorbell word as loaded
	// by the last poll that found the next slot plainly empty; 0 when the
	// last poll found anything else. While the word stays there nothing
	// has landed since, and a poll answers "empty" without a look.
	idleBell uint64
	// credit stages the consumed count for the credit write: a stack
	// array would escape through the rdma.Conn interface on every flush.
	credit [CreditBytes]byte
}

// ReaderConfig configures a Reader.
type ReaderConfig struct {
	Ring     *rdma.MemoryRegion
	Base     int
	Slots    int
	SlotSize int
	// Conn+CreditRKey+CreditOff locate the writer-side credit counter this
	// reader deposits consumed counts into. Conn may be nil for loopback
	// tests (credits then cannot be returned).
	Conn       rdma.Conn
	CreditRKey uint32
	CreditOff  uint64
	// CreditEvery flushes credits after this many consumed messages
	// (default: slots/4, at least 1).
	CreditEvery int
}

// NewReader creates the polling half of a ring.
func NewReader(cfg ReaderConfig) (*Reader, error) {
	if cfg.Slots <= 0 || cfg.SlotSize <= Overhead {
		return nil, fmt.Errorf("ringbuf: invalid geometry %d×%d", cfg.Slots, cfg.SlotSize)
	}
	if cfg.Ring == nil || cfg.Ring.Len() < cfg.Base+cfg.Slots*cfg.SlotSize {
		return nil, errors.New("ringbuf: ring region missing or too small")
	}
	ce := uint64(cfg.CreditEvery)
	if ce == 0 {
		ce = uint64(cfg.Slots / 4)
		if ce == 0 {
			ce = 1
		}
	}
	return &Reader{
		ring:        cfg.Ring,
		base:        cfg.Base,
		slots:       uint64(cfg.Slots),
		slotSize:    cfg.SlotSize,
		conn:        cfg.Conn,
		creditRKey:  cfg.CreditRKey,
		creditOff:   cfg.CreditOff,
		creditEvery: ce,
		hdr:         make([]byte, headerLen),
	}, nil
}

// Poll checks the next slot for a complete frame. It returns (msg, true)
// with a copy of the message when one is ready, consuming the slot.
//
// A slot whose framing is provably mangled (an impossible length or
// start sign, or no end sign although the next slot is in use) is also
// consumed — skipped, its credit returned — and reported as ErrCorrupt:
// the ring must stay in sync past garbage, or one flipped bit would
// wedge the session forever. The caller decides what corruption means;
// the reader only guarantees forward progress.
func (r *Reader) Poll() ([]byte, bool, error) { return r.PollInto(nil) }

// PollInto is Poll with a caller-provided buffer, the allocation-free
// variant hot loops use: the frame is read into buf when its capacity
// suffices (a larger buffer is allocated otherwise, sized to the slot
// so it never grows twice). The returned slice is the buffer to retain
// for the next call — when a message is ready its length is the message
// length; otherwise buf comes back unchanged. The message bytes are
// only valid until the next PollInto with the same buffer.
func (r *Reader) PollInto(buf []byte) ([]byte, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	bell, rang := r.bellLocked()
	if !rang {
		return buf, false, nil
	}
	return r.lookLocked(buf, bell)
}

// bellLocked and lookLocked are the two halves of a poll, in the order
// that loses no frame: load the ring region's doorbell word, then look at
// the slot; remember the word only when the slot was plainly empty; look
// again whenever it moved. A frame that lands after the load bumps the
// word past what is remembered, so it is never slept through, and a poll
// of an idle ring stops at the load. bellLocked reports whether the look
// is due.
func (r *Reader) bellLocked() (bell uint64, rang bool) {
	bell = r.ring.Doorbell() + 1
	return bell, bell != r.idleBell
}

func (r *Reader) lookLocked(buf []byte, bell uint64) ([]byte, bool, error) {
	r.idleBell = 0
	slotOff := r.base + int(r.readIdx%r.slots)*r.slotSize
	if sign := r.ring.ByteAt(slotOff); sign != StartSign {
		if sign != 0 {
			// The reader zeroes every slot it leaves and a writer starts one
			// only with StartSign, so anything else is a frame whose start
			// sign was mangled in flight. Later frames land in later slots:
			// waiting here would never end.
			err := fmt.Errorf("%w: start sign %#x", ErrCorrupt, sign)
			return buf, false, r.consumeCorruptLocked(slotOff, err)
		}
		r.idleBell = bell
		return buf, false, nil
	}
	if n := r.ring.ReadAt(slotOff, r.hdr); n != headerLen {
		return buf, false, nil
	}
	msgLen := int(binary.LittleEndian.Uint32(r.hdr[1:5]))
	if msgLen > r.slotSize-Overhead {
		err := fmt.Errorf("%w: length %d", ErrCorrupt, msgLen)
		return buf, false, r.consumeCorruptLocked(slotOff, err)
	}
	if r.ring.ByteAt(slotOff+headerLen+msgLen) != EndSign {
		// Write still in flight — unless the writer has already started the
		// next slot. Writes land in order, so then this frame is all here
		// and its length or end sign was mangled.
		next := r.base + int((r.readIdx+1)%r.slots)*r.slotSize
		if r.slots > 1 && r.ring.ByteAt(next) == StartSign {
			err := fmt.Errorf("%w: no end sign at length %d", ErrCorrupt, msgLen)
			return buf, false, r.consumeCorruptLocked(slotOff, err)
		}
		return buf, false, nil
	}
	var msg []byte
	if cap(buf) >= msgLen {
		msg = buf[:msgLen]
	} else {
		msg = make([]byte, msgLen, r.slotSize)
	}
	if n := r.ring.ReadAt(slotOff+headerLen, msg); n != msgLen {
		err := fmt.Errorf("%w: short read", ErrCorrupt)
		return buf, false, r.consumeCorruptLocked(slotOff, err)
	}
	// Clear the start sign so the slot reads as free until rewritten.
	r.ring.SetByte(slotOff, 0)
	r.ring.SetByte(slotOff+headerLen+msgLen, 0)
	r.readIdx++
	r.consumed++
	if r.consumed-r.lastFlushed >= r.creditEvery {
		if err := r.flushCreditsLocked(); err != nil {
			return msg, true, err
		}
	}
	return msg, true, nil
}

// consumeCorruptLocked skips past a mangled slot: clear its start sign,
// advance, and return the slot's credit so the writer does not starve.
// The framing error is returned (joined with any credit-flush error).
func (r *Reader) consumeCorruptLocked(slotOff int, cause error) error {
	r.ring.SetByte(slotOff, 0)
	r.readIdx++
	r.consumed++
	if r.consumed-r.lastFlushed >= r.creditEvery {
		if err := r.flushCreditsLocked(); err != nil {
			return errors.Join(cause, err)
		}
	}
	return cause
}

// FlushCredits pushes the consumed count to the writer immediately.
func (r *Reader) FlushCredits() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flushCreditsLocked()
}

func (r *Reader) flushCreditsLocked() error {
	if r.conn == nil {
		return nil
	}
	binary.LittleEndian.PutUint64(r.credit[:], r.consumed)
	r.wrID++
	if err := r.conn.PostWrite(r.wrID, r.creditRKey, r.creditOff, r.credit[:], false); err != nil {
		return fmt.Errorf("credit write: %w", err)
	}
	r.lastFlushed = r.consumed
	return nil
}

// Consumed returns the cumulative number of messages read.
func (r *Reader) Consumed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.consumed
}
