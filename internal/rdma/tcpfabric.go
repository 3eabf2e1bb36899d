package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// This file implements the TCP fabric: RDMA verbs tunneled over a real
// TCP connection, SoftRoCE-style. Each end runs a NIC-agent goroutine
// that applies incoming one-sided operations directly to its local
// device's registered memory — the application on that host is not
// involved, preserving one-sided semantics across processes — and that
// acknowledges them so the initiator sees RC completion behaviour
// (including remote access errors transitioning the QP to error state).
//
// cmd/precursor-server and cmd/precursor-cli deploy Precursor across
// machines with this fabric; the in-process Fabric covers tests and
// benchmarks.

// frame types on the wire.
const (
	frWrite byte = iota + 1
	frWriteImm
	frRead
	frSend
	frAtomicCAS
	frAtomicFAA
	frAck
	frError // peer moved to error state
)

// ack status codes.
const (
	ackOK byte = iota
	ackRemoteError
)

const tcpMaxFrame = 4 << 20

// tcpWriteStall bounds one frame's conn.Write. A write only waits when the
// socket buffers are full, that is when the peer has stopped reading — and
// the posting goroutine may be one that other connections depend on (a
// server's shared reply sender, a trusted thread returning ring credit).
// Past the bound the connection is given up on, the way an RC queue pair
// errors out once its retries are exhausted.
const tcpWriteStall = 250 * time.Millisecond

// maxRetainedScratch bounds what a connection's scratch buffers keep
// between frames: one that grew past it for a single large frame is
// dropped after use, so an idle connection holds no large buffer.
const maxRetainedScratch = 64 << 10

// retain returns buf emptied for the next frame, or nil when it outgrew
// maxRetainedScratch.
func retain(buf []byte) []byte {
	if cap(buf) > maxRetainedScratch {
		return nil
	}
	return buf[:0]
}

// popFront removes and returns the head of *q, compacting in place so the
// backing array's head is reused and the vacated tail pins nothing.
func popFront[T any](q *[]T) T {
	s := *q
	head := s[0]
	n := copy(s, s[1:])
	var zero T
	s[n] = zero
	*q = s[:n]
	return head
}

// ErrFrameTooLarge is returned for oversized fabric frames.
var ErrFrameTooLarge = errors.New("rdma: tcp fabric frame too large")

// TCPQP is a queue pair whose peer is reached over TCP. It implements
// Conn. Create pairs with DialTCP / TCPListener.Accept.
type TCPQP struct {
	device *Device
	conn   net.Conn

	wmu  sync.Mutex // serializes frame writes
	wbuf []byte     // write scratch, guarded by wmu: one frame is assembled here and leaves in one conn.Write

	// Agent-goroutine scratch, reused frame after frame: rbuf holds the
	// frame being applied (every apply* copies what it keeps before the
	// next read), abuf the data a READ is answered with.
	rbuf, abuf []byte

	mu      sync.Mutex
	state   qpState
	sendCQ  []Completion
	recvCQ  []Completion
	recvQ   []postedRecv
	pending []inboundMsg
	nextOp  uint64
	awaits  map[uint64]pendingOp

	done chan struct{}
}

var _ Conn = (*TCPQP)(nil)

// pendingOp tracks an initiated operation awaiting its ack.
type pendingOp struct {
	wrID     uint64
	op       OpType
	signaled bool
	dst      []byte // read destination
}

// NewTCPQP wraps an established net.Conn as a queue pair on dev. Both
// sides must wrap their end. The agent goroutine starts immediately.
func NewTCPQP(dev *Device, conn net.Conn) *TCPQP {
	q := &TCPQP{
		device: dev,
		conn:   conn,
		awaits: make(map[uint64]pendingOp),
		done:   make(chan struct{}),
	}
	go q.agent()
	return q
}

// DialTCP connects to a TCP fabric listener and returns the local QP.
func DialTCP(dev *Device, addr string) (*TCPQP, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rdma: dial fabric: %w", err)
	}
	return NewTCPQP(dev, conn), nil
}

// TCPListener accepts fabric connections for a local device.
type TCPListener struct {
	dev *Device
	ln  net.Listener
}

// ListenTCP starts a fabric listener on addr.
func ListenTCP(dev *Device, addr string) (*TCPListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rdma: listen fabric: %w", err)
	}
	return &TCPListener{dev: dev, ln: ln}, nil
}

// Addr returns the listening address.
func (l *TCPListener) Addr() string { return l.ln.Addr().String() }

// Accept blocks for the next fabric connection and returns its QP.
func (l *TCPListener) Accept() (*TCPQP, error) {
	conn, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return NewTCPQP(l.dev, conn), nil
}

// Close stops the listener.
func (l *TCPListener) Close() error { return l.ln.Close() }

// writeFrame sends one length-prefixed frame, [u32 len][type][verb
// header][data], assembled in the connection's write scratch so that it
// leaves in one conn.Write. Callers bound the frame: post refuses an
// oversized one, and an ack carries at most tcpMaxFrame/2 of read data.
// The write is bounded by tcpWriteStall; a failed one may have cut a frame
// short, after which the stream cannot be framed again, so it closes the
// connection — the agent's read then fails and moves the QP to error.
func (q *TCPQP) writeFrame(ft byte, vh, data []byte) error {
	n := 1 + len(vh) + len(data)
	q.wmu.Lock()
	defer q.wmu.Unlock()
	if cap(q.wbuf) < 4+n {
		q.wbuf = make([]byte, 0, 4+n)
	}
	buf := binary.LittleEndian.AppendUint32(q.wbuf[:0], uint32(n))
	buf = append(buf, ft)
	buf = append(buf, vh...)
	buf = append(buf, data...)
	_ = q.conn.SetWriteDeadline(time.Now().Add(tcpWriteStall))
	_, err := q.conn.Write(buf)
	q.wbuf = retain(buf)
	if err != nil {
		_ = q.conn.Close()
		return fmt.Errorf("rdma: fabric write: %w", err)
	}
	return nil
}

// readyLocked reports why the QP cannot take a work request, if it
// cannot. Called with mu held.
func (q *TCPQP) readyLocked() error {
	switch q.state {
	case qpErr:
		return ErrQPError
	case qpClosed:
		return ErrQPClosed
	}
	return nil
}

// post initiates one operation: it registers op to await its ack, stamps
// the op id into the first eight bytes of the verb header vh and sends the
// frame. An oversized frame is refused before anything is registered and
// a failed write takes its registration back, so a post that returned an
// error leaves no entry behind for enterErrorTCP to flush.
func (q *TCPQP) post(ft byte, op pendingOp, vh, data []byte) error {
	if 1+len(vh)+len(data) > tcpMaxFrame {
		return ErrFrameTooLarge
	}
	q.mu.Lock()
	if err := q.readyLocked(); err != nil {
		q.mu.Unlock()
		return err
	}
	q.nextOp++
	opID := q.nextOp
	q.awaits[opID] = op
	q.mu.Unlock()
	binary.LittleEndian.PutUint64(vh, opID)
	if err := q.writeFrame(ft, vh, data); err != nil {
		q.mu.Lock()
		delete(q.awaits, opID)
		q.mu.Unlock()
		return err
	}
	return nil
}

// PostWrite implements Conn.
func (q *TCPQP) PostWrite(wrID uint64, rkey uint32, off uint64, data []byte, signaled bool) error {
	return q.postWriteTCP(frWrite, wrID, rkey, off, data, 0, signaled)
}

// PostWriteImm implements Conn.
func (q *TCPQP) PostWriteImm(wrID uint64, rkey uint32, off uint64, data []byte, imm uint32, signaled bool) error {
	return q.postWriteTCP(frWriteImm, wrID, rkey, off, data, imm, signaled)
}

func (q *TCPQP) postWriteTCP(ft byte, wrID uint64, rkey uint32, off uint64, data []byte, imm uint32, signaled bool) error {
	// [opID u64][rkey u32][off u64][imm u32][data]
	var vh [24]byte
	binary.LittleEndian.PutUint32(vh[8:], rkey)
	binary.LittleEndian.PutUint64(vh[12:], off)
	binary.LittleEndian.PutUint32(vh[20:], imm)
	return q.post(ft, pendingOp{wrID: wrID, op: OpWrite, signaled: signaled}, vh[:], data)
}

// PostRead implements Conn.
func (q *TCPQP) PostRead(wrID uint64, rkey uint32, off uint64, dst []byte) error {
	// [opID u64][rkey u32][off u64][len u32]
	var vh [24]byte
	binary.LittleEndian.PutUint32(vh[8:], rkey)
	binary.LittleEndian.PutUint64(vh[12:], off)
	binary.LittleEndian.PutUint32(vh[20:], uint32(len(dst)))
	return q.post(frRead, pendingOp{wrID: wrID, op: OpRead, signaled: true, dst: dst}, vh[:], nil)
}

// PostAtomicCAS implements Conn.
func (q *TCPQP) PostAtomicCAS(wrID uint64, rkey uint32, off uint64, compare, swap uint64) error {
	return q.postAtomicTCP(frAtomicCAS, wrID, rkey, off, compare, swap, OpAtomicCAS)
}

// PostAtomicFAA implements Conn.
func (q *TCPQP) PostAtomicFAA(wrID uint64, rkey uint32, off uint64, add uint64) error {
	return q.postAtomicTCP(frAtomicFAA, wrID, rkey, off, 0, add, OpAtomicFAA)
}

func (q *TCPQP) postAtomicTCP(ft byte, wrID uint64, rkey uint32, off uint64, compare, val uint64, op OpType) error {
	// [opID u64][rkey u32][off u64][compare u64][val u64]
	var vh [36]byte
	binary.LittleEndian.PutUint32(vh[8:], rkey)
	binary.LittleEndian.PutUint64(vh[12:], off)
	binary.LittleEndian.PutUint64(vh[20:], compare)
	binary.LittleEndian.PutUint64(vh[28:], val)
	return q.post(ft, pendingOp{wrID: wrID, op: op, signaled: true}, vh[:], nil)
}

// PostSend implements Conn.
func (q *TCPQP) PostSend(wrID uint64, data []byte, signaled, inline bool) error {
	_ = inline
	var vh [8]byte // [opID u64][data]
	return q.post(frSend, pendingOp{wrID: wrID, op: OpSend, signaled: signaled}, vh[:], data)
}

// PostRecv implements Conn.
func (q *TCPQP) PostRecv(wrID uint64, buf []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.readyLocked(); err != nil {
		return err
	}
	r := postedRecv{wrID: wrID, buf: buf}
	if len(q.pending) > 0 {
		q.recvCQ = append(q.recvCQ, makeRecvCompletion(r, popFront(&q.pending)))
		return nil
	}
	q.recvQ = append(q.recvQ, r)
	return nil
}

// PollSend implements Conn.
func (q *TCPQP) PollSend(max int) []Completion {
	q.mu.Lock()
	defer q.mu.Unlock()
	return popCompletions(&q.sendCQ, max)
}

// PollRecv implements Conn.
func (q *TCPQP) PollRecv(max int) []Completion {
	q.mu.Lock()
	defer q.mu.Unlock()
	return popCompletions(&q.recvCQ, max)
}

// PostBounded implements Conn: a post is a conn.Write under wmu, and a
// ring's worth of frames can exceed a socket buffer, so a peer that stops
// reading stalls whoever posts for up to tcpWriteStall.
func (q *TCPQP) PostBounded() bool { return false }

// SetError implements Conn.
func (q *TCPQP) SetError() {
	_ = q.writeFrame(frError, nil, nil)
	q.enterErrorTCP()
}

// Close implements Conn.
func (q *TCPQP) Close() error {
	q.mu.Lock()
	if q.state == qpClosed {
		q.mu.Unlock()
		return nil
	}
	q.state = qpClosed
	q.mu.Unlock()
	return q.conn.Close()
}

func (q *TCPQP) enterErrorTCP() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.state != qpReady {
		return
	}
	q.state = qpErr
	for _, r := range q.recvQ {
		q.recvCQ = append(q.recvCQ, Completion{
			WRID: r.wrID, Op: OpRecv, Status: StatusFlushed, Err: ErrQPError, Buf: r.buf,
		})
	}
	q.recvQ = nil
	// Ops still awaiting their ack will never get one: flush them to the
	// send CQ so initiators observe the failure instead of polling forever.
	for id, op := range q.awaits {
		q.sendCQ = append(q.sendCQ, Completion{
			WRID: op.wrID, Op: op.op, Status: StatusFlushed, Err: ErrQPError,
		})
		delete(q.awaits, id)
	}
}

// agent is the NIC-agent loop: it reads frames, applies one-sided ops to
// local memory, delivers sends, and completes awaited operations.
func (q *TCPQP) agent() {
	defer close(q.done)
	for {
		frameType, payload, err := q.readFrame()
		if err != nil {
			q.enterErrorTCP()
			return
		}
		switch frameType {
		case frWrite, frWriteImm:
			q.applyWrite(frameType == frWriteImm, payload)
		case frRead:
			q.applyRead(payload)
		case frAtomicCAS, frAtomicFAA:
			q.applyAtomic(frameType == frAtomicCAS, payload)
		case frSend:
			q.applySend(payload)
		case frAck:
			q.applyAck(payload)
		case frError:
			q.enterErrorTCP()
			return
		}
		q.rbuf = retain(q.rbuf)
	}
}

// readFrame reads the next frame into the agent's read scratch; the
// payload it returns is valid until the next call.
func (q *TCPQP) readFrame() (byte, []byte, error) {
	if cap(q.rbuf) < 5 {
		q.rbuf = make([]byte, 0, 512)
	}
	hdr := q.rbuf[:5]
	if _, err := io.ReadFull(q.conn, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n == 0 || n > tcpMaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	ft := hdr[4]
	if cap(q.rbuf) < int(n-1) {
		q.rbuf = make([]byte, 0, n-1)
	}
	payload := q.rbuf[:n-1]
	if _, err := io.ReadFull(q.conn, payload); err != nil {
		return 0, nil, err
	}
	return ft, payload, nil
}

// sendAck replies to an initiated op: [opID u64][status][old u64][data].
func (q *TCPQP) sendAck(opID uint64, status byte, old uint64, data []byte) {
	var vh [17]byte
	binary.LittleEndian.PutUint64(vh[0:], opID)
	vh[8] = status
	binary.LittleEndian.PutUint64(vh[9:], old)
	_ = q.writeFrame(frAck, vh[:], data)
}

func (q *TCPQP) applyWrite(hasImm bool, p []byte) {
	if len(p) < 24 {
		return
	}
	opID := binary.LittleEndian.Uint64(p[0:])
	rkey := binary.LittleEndian.Uint32(p[8:])
	off := binary.LittleEndian.Uint64(p[12:])
	imm := binary.LittleEndian.Uint32(p[20:])
	data := p[24:]

	mr, err := q.device.lookupMR(rkey)
	if err == nil {
		err = mr.remoteWrite(off, data)
	}
	if err != nil {
		q.sendAck(opID, ackRemoteError, 0, nil)
		return
	}
	if hasImm {
		q.deliverTCP(inboundMsg{imm: imm, hasImm: true})
	}
	q.sendAck(opID, ackOK, 0, nil)
}

func (q *TCPQP) applyRead(p []byte) {
	if len(p) < 24 {
		return
	}
	opID := binary.LittleEndian.Uint64(p[0:])
	rkey := binary.LittleEndian.Uint32(p[8:])
	off := binary.LittleEndian.Uint64(p[12:])
	n := binary.LittleEndian.Uint32(p[20:])
	if n > tcpMaxFrame/2 {
		q.sendAck(opID, ackRemoteError, 0, nil)
		return
	}
	if cap(q.abuf) < int(n) {
		q.abuf = make([]byte, 0, n)
	}
	dst := q.abuf[:n]
	mr, err := q.device.lookupMR(rkey)
	if err == nil {
		err = mr.remoteRead(off, dst)
	}
	status := ackOK
	if err != nil {
		status, dst = ackRemoteError, nil
	}
	q.sendAck(opID, status, 0, dst)
	q.abuf = retain(q.abuf)
}

func (q *TCPQP) applyAtomic(cas bool, p []byte) {
	if len(p) < 36 {
		return
	}
	opID := binary.LittleEndian.Uint64(p[0:])
	rkey := binary.LittleEndian.Uint32(p[8:])
	off := binary.LittleEndian.Uint64(p[12:])
	compare := binary.LittleEndian.Uint64(p[20:])
	val := binary.LittleEndian.Uint64(p[28:])

	mr, err := q.device.lookupMR(rkey)
	var old uint64
	if err == nil {
		old, err = mr.remoteAtomic(off, cas, compare, val)
	}
	if err != nil {
		q.sendAck(opID, ackRemoteError, 0, nil)
		return
	}
	q.sendAck(opID, ackOK, old, nil)
}

func (q *TCPQP) applySend(p []byte) {
	if len(p) < 8 {
		return
	}
	opID := binary.LittleEndian.Uint64(p[0:])
	q.deliverTCP(inboundMsg{data: p[8:]})
	q.sendAck(opID, ackOK, 0, nil)
}

// deliverTCP hands msg to the oldest posted receive, which copies its
// data; with none posted the message waits, on a copy of its own — msg.data
// aliases the agent's read scratch.
func (q *TCPQP) deliverTCP(msg inboundMsg) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.state != qpReady {
		return
	}
	if len(q.recvQ) == 0 {
		msg.data = append([]byte(nil), msg.data...)
		q.pending = append(q.pending, msg)
		return
	}
	q.recvCQ = append(q.recvCQ, makeRecvCompletion(popFront(&q.recvQ), msg))
}

func (q *TCPQP) applyAck(p []byte) {
	if len(p) < 17 {
		return
	}
	opID := binary.LittleEndian.Uint64(p[0:])
	status := p[8]
	old := binary.LittleEndian.Uint64(p[9:])
	data := p[17:]

	q.mu.Lock()
	op, ok := q.awaits[opID]
	if ok {
		delete(q.awaits, opID)
	}
	q.mu.Unlock()
	if !ok {
		return
	}
	if status != ackOK {
		// Remote access error: RC semantics move the QP to error state.
		q.mu.Lock()
		q.sendCQ = append(q.sendCQ, Completion{
			WRID: op.wrID, Op: op.op, Status: StatusRemoteAccessError, Err: ErrBadRKey,
		})
		q.mu.Unlock()
		q.enterErrorTCP()
		return
	}
	var c Completion
	switch op.op {
	case OpRead:
		n := copy(op.dst, data)
		c = Completion{WRID: op.wrID, Op: OpRead, Status: StatusOK, Len: n}
	case OpAtomicCAS, OpAtomicFAA:
		c = Completion{WRID: op.wrID, Op: op.op, Status: StatusOK, OldVal: old, Len: 8}
	default:
		if !op.signaled {
			return
		}
		c = Completion{WRID: op.wrID, Op: op.op, Status: StatusOK}
	}
	q.mu.Lock()
	q.sendCQ = append(q.sendCQ, c)
	q.mu.Unlock()
}
