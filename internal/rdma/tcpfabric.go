package rdma

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
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
// Acks are coalesced the way a NIC coalesces completions under selective
// signaling: a successful op is acked only when its frame asks for it, and
// one ack retires every earlier op that asked for none, which is sound
// because the responder applies ops in the order they were sent and NAKs
// every one that fails.
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

// frAckReq, or'd into an op frame's type, asks the responder to ack the op
// when it succeeds; a failed op is NAKed whether or not its frame asked.
const frAckReq byte = 0x80

// ackEvery bounds the run of ops that ask for no ack: the initiator asks
// on every signaled op, read and atomic, and on any op that would make
// ackEvery in a row without asking — so a stream of unsignaled writes
// (credit returns) is retired at least every ackEvery ops.
const ackEvery = 16

// verbHeader is the length of each frame type's verb header (for op frames
// the op id comes first); 0 marks a type that carries none.
var verbHeader = [...]int{frWrite: 24, frWriteImm: 24, frRead: 24, frSend: 8,
	frAtomicCAS: 36, frAtomicFAA: 36, frAck: 17, frError: 0}

// fabricHello opens each direction of a connection, ahead of any frame: a
// frame header whose length ("PFAB" read as a little-endian uint32) exceeds
// tcpMaxFrame, so a peer built before coalesced acks refuses the connection
// as an oversized frame, followed by the framing version. A peer that does
// not open with it is refused in turn.
var fabricHello = [5]byte{'P', 'F', 'A', 'B', 2}

// errFabricFraming ends a connection whose peer did not open with
// fabricHello.
var errFabricFraming = errors.New("rdma: peer speaks another fabric framing")

// ack status codes.
const (
	ackOK byte = iota
	ackRemoteError
)

const tcpMaxFrame = 4 << 20

// agentReadBuffer sizes a connection's buffered reader: one read from the
// socket brings in one frame or several.
const agentReadBuffer = 4 << 10

// tcpWriteStall bounds one frame's conn.Write. A write only waits when the
// socket buffers are full, that is when the peer has stopped reading — and
// the posting goroutine may be one that other connections depend on (a
// server's shared reply sender, a trusted thread returning ring credit).
// Past the bound the connection is given up on, the way an RC queue pair
// errors out once its retries are exhausted. The deadline is re-armed only
// once less than half of it is left, so a write is given up on after
// between tcpWriteStall/2 and tcpWriteStall.
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
	head := (*q)[0]
	dropFront(q, 1)
	return head
}

// dropFront removes the first n elements of *q the way popFront does.
func dropFront[T any](q *[]T, n int) {
	s := *q
	m := copy(s, s[n:])
	clear(s[m:])
	*q = s[:m]
}

// ErrFrameTooLarge is returned for oversized fabric frames.
var ErrFrameTooLarge = errors.New("rdma: tcp fabric frame too large")

// FabricStats counts a TCP fabric's work: frames sent and received, the
// reads from the socket that brought the received ones in (the agent reads
// through a buffer, so one read may carry several frames), and the acks
// the agent sent.
type FabricStats struct {
	FramesWritten, FramesRead, Reads, AcksSent uint64
}

// Add accumulates o into s.
func (s *FabricStats) Add(o FabricStats) {
	s.FramesWritten += o.FramesWritten
	s.FramesRead += o.FramesRead
	s.Reads += o.Reads
	s.AcksSent += o.AcksSent
}

// fabricEvent indexes fabricCounters.
type fabricEvent int

const (
	evFrameWritten fabricEvent = iota
	evFrameRead
	evRead
	evAck
)

// fabricCounters hold a device's FabricStats, one atomic per event.
type fabricCounters [4]atomic.Uint64

func (c *fabricCounters) stats() FabricStats {
	return FabricStats{FramesWritten: c[evFrameWritten].Load(), FramesRead: c[evFrameRead].Load(),
		Reads: c[evRead].Load(), AcksSent: c[evAck].Load()}
}

// TCPQP is a queue pair whose peer is reached over TCP. It implements
// Conn. Create pairs with DialTCP / TCPListener.Accept.
type TCPQP struct {
	device *Device
	conn   net.Conn

	// wmu serializes frame writes, and a post takes its op id under it, so
	// op ids leave in the order they are taken.
	wmu  sync.Mutex
	wbuf []byte    // write scratch: one frame is assembled here and leaves in one conn.Write
	wdl  time.Time // the write deadline armed on conn
	// asked is the last op id whose frame asked for an ack.
	asked uint64

	// Agent-goroutine state: br buffers the socket; rbuf holds the frame
	// being applied (every apply* copies what it keeps before the next
	// read), abuf the data a READ is answered with; hello is set once the
	// peer's fabricHello arrived.
	br         *bufio.Reader
	rbuf, abuf []byte
	hello      bool

	mu      sync.Mutex
	state   qpState
	failed  atomic.Bool // state has left qpReady: Failed reads it without mu
	sendCQ  []Completion
	polled  []Completion // what PollSend returned last
	recvCQ  []Completion
	recvQ   []postedRecv
	pending []inboundMsg
	nextOp  uint64
	awaits  []pendingOp // in op-id order

	done chan struct{}
}

var _ Conn = (*TCPQP)(nil)

// pendingOp tracks an initiated operation until an ack retires it.
type pendingOp struct {
	id       uint64
	wrID     uint64
	op       OpType
	signaled bool
	asked    bool   // its frame asked for an ack
	dst      []byte // read destination
}

// socket is the agent's view of the connection: every Read is one read
// from the socket, counted once it returns.
type socket TCPQP

func (s *socket) Read(p []byte) (int, error) {
	q := (*TCPQP)(s)
	n, err := q.conn.Read(p)
	q.count(evRead)
	return n, err
}

// NewTCPQP wraps an established net.Conn as a queue pair on dev. Both
// sides must wrap their end. It sends fabricHello and starts the agent
// goroutine.
func NewTCPQP(dev *Device, conn net.Conn) *TCPQP {
	q := &TCPQP{
		device: dev,
		conn:   conn,
		done:   make(chan struct{}),
	}
	q.br = bufio.NewReaderSize((*socket)(q), agentReadBuffer)
	q.wmu.Lock()
	q.armWriteDeadline()
	if _, err := conn.Write(fabricHello[:]); err != nil {
		_ = conn.Close() // the agent's read fails and moves the QP to error
	}
	q.wmu.Unlock()
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

// count notes one event in the device's fabric counters.
func (q *TCPQP) count(e fabricEvent) { q.device.tcp[e].Add(1) }

// armWriteDeadline keeps a deadline of at least tcpWriteStall/2 armed on
// the connection, re-arming it to tcpWriteStall only when less is left:
// setting it resets the socket's runtime timer, too dear to do per frame.
// Called with wmu held.
func (q *TCPQP) armWriteDeadline() {
	if now := time.Now(); q.wdl.Sub(now) < tcpWriteStall/2 {
		q.wdl = now.Add(tcpWriteStall)
		_ = q.conn.SetWriteDeadline(q.wdl)
	}
}

// writeFrame sends one frame under wmu; see writeFrameLocked.
func (q *TCPQP) writeFrame(ft byte, vh, data []byte) error {
	q.wmu.Lock()
	defer q.wmu.Unlock()
	return q.writeFrameLocked(ft, vh, data)
}

// writeFrameLocked sends one length-prefixed frame, [u32 len][type][verb
// header][data], assembled in the connection's write scratch so that it
// leaves in one conn.Write. Callers bound the frame: post refuses an
// oversized one, and an ack carries at most tcpMaxFrame/2 of read data.
// The write is bounded (armWriteDeadline); a failed one may have cut a
// frame short, after which the stream cannot be framed again, so it closes
// the connection — the agent's read then fails and moves the QP to error.
// Called with wmu held.
func (q *TCPQP) writeFrameLocked(ft byte, vh, data []byte) error {
	n := 1 + len(vh) + len(data)
	if cap(q.wbuf) < 4+n {
		q.wbuf = make([]byte, 0, 4+n)
	}
	buf := binary.LittleEndian.AppendUint32(q.wbuf[:0], uint32(n))
	buf = append(buf, ft)
	buf = append(buf, vh...)
	buf = append(buf, data...)
	q.armWriteDeadline()
	_, err := q.conn.Write(buf)
	q.wbuf = retain(buf)
	if err != nil {
		_ = q.conn.Close()
		return fmt.Errorf("rdma: fabric write: %w", err)
	}
	q.count(evFrameWritten)
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

// post initiates one operation: under wmu it takes the next op id, decides
// whether the frame asks for an ack, queues op to be retired, stamps the id
// into the first eight bytes of the verb header vh and sends the frame. An
// oversized frame is refused before anything is queued and a failed write
// takes its entry back, so a post that returned an error leaves nothing
// behind for enterErrorTCP to flush.
func (q *TCPQP) post(ft byte, op pendingOp, vh, data []byte) error {
	if 1+len(vh)+len(data) > tcpMaxFrame {
		return ErrFrameTooLarge
	}
	q.wmu.Lock()
	defer q.wmu.Unlock()
	q.mu.Lock()
	if err := q.readyLocked(); err != nil {
		q.mu.Unlock()
		return err
	}
	q.nextOp++
	op.id = q.nextOp
	if op.asked = op.signaled || op.id-q.asked >= ackEvery; op.asked {
		ft |= frAckReq
		q.asked = op.id
	}
	q.awaits = append(q.awaits, op)
	q.mu.Unlock()
	binary.LittleEndian.PutUint64(vh, op.id)
	if err := q.writeFrameLocked(ft, vh, data); err != nil {
		q.mu.Lock()
		if n := len(q.awaits); n > 0 && q.awaits[n-1].id == op.id {
			q.awaits[n-1] = pendingOp{}
			q.awaits = q.awaits[:n-1]
		}
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
	q.polled = popCompletions(&q.sendCQ, max, q.polled)
	return q.polled
}

// PollRecv implements Conn.
func (q *TCPQP) PollRecv(max int) []Completion {
	q.mu.Lock()
	defer q.mu.Unlock()
	return popCompletions(&q.recvCQ, max, nil)
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
	q.failed.Store(true)
	q.mu.Unlock()
	return q.conn.Close()
}

// Failed implements Conn.
func (q *TCPQP) Failed() bool { return q.failed.Load() }

func (q *TCPQP) enterErrorTCP() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.state != qpReady {
		return
	}
	q.state = qpErr
	q.failed.Store(true)
	for _, r := range q.recvQ {
		q.recvCQ = append(q.recvCQ, Completion{
			WRID: r.wrID, Op: OpRecv, Status: StatusFlushed, Err: ErrQPError, Buf: r.buf,
		})
	}
	q.recvQ = nil
	// Ops not yet retired never will be: flush them to the send CQ, in the
	// order they were posted, so initiators observe the failure instead of
	// polling forever.
	for _, op := range q.awaits {
		q.sendCQ = append(q.sendCQ, Completion{
			WRID: op.wrID, Op: op.op, Status: StatusFlushed, Err: ErrQPError,
		})
	}
	dropFront(&q.awaits, len(q.awaits))
}

// agent is the NIC-agent loop: it reads frames, applies one-sided ops to
// local memory, delivers sends, and retires awaited operations. The peer
// moving to error, a frame this framing does not know, and a frame too
// short for its verb header end it and move the QP to error: skipping such
// a frame could drop a write nobody would ever hear of.
func (q *TCPQP) agent() {
	defer close(q.done)
	for {
		ft, payload, err := q.readFrame()
		if err != nil || !q.apply(ft, payload) {
			q.enterErrorTCP()
			return
		}
		q.rbuf, q.abuf = retain(q.rbuf), retain(q.abuf)
	}
}

// readFrame reads the next frame into the agent's read scratch; the
// payload it returns is valid until the next call. The first frame must be
// preceded by fabricHello.
func (q *TCPQP) readFrame() (byte, []byte, error) {
	if cap(q.rbuf) < 5 {
		q.rbuf = make([]byte, 0, 512)
	}
	hdr := q.rbuf[:5]
	if _, err := io.ReadFull(q.br, hdr); err != nil {
		return 0, nil, err
	}
	if !q.hello && [5]byte(hdr) == fabricHello {
		q.hello = true
		return q.readFrame()
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
	if _, err := io.ReadFull(q.br, payload); err != nil {
		return 0, nil, err
	}
	if !q.hello {
		return 0, nil, errFabricFraming
	}
	q.count(evFrameRead)
	return ft, payload, nil
}

// apply carries out one frame and reports whether the QP stays up. An op
// is acked when it fails or its frame asked for an ack.
func (q *TCPQP) apply(ft byte, p []byte) bool {
	kind := ft &^ frAckReq
	if int(kind) >= len(verbHeader) || verbHeader[kind] == 0 || len(p) < verbHeader[kind] {
		return false
	}
	var (
		old  uint64
		data []byte
		err  error
	)
	switch kind {
	case frWrite, frWriteImm:
		err = q.applyWrite(kind == frWriteImm, p)
	case frRead:
		data, err = q.applyRead(p)
	case frAtomicCAS, frAtomicFAA:
		old, err = q.applyAtomic(kind == frAtomicCAS, p)
	case frSend:
		q.deliverTCP(inboundMsg{data: p[8:]})
	case frAck:
		return q.applyAck(p)
	}
	opID := binary.LittleEndian.Uint64(p)
	if err != nil {
		q.sendAck(opID, ackRemoteError, 0, nil)
	} else if ft&frAckReq != 0 {
		q.sendAck(opID, ackOK, old, data)
	}
	return true
}

// sendAck replies to an initiated op: [opID u64][status][old u64][data].
func (q *TCPQP) sendAck(opID uint64, status byte, old uint64, data []byte) {
	var vh [17]byte
	binary.LittleEndian.PutUint64(vh[0:], opID)
	vh[8] = status
	binary.LittleEndian.PutUint64(vh[9:], old)
	q.count(evAck)
	_ = q.writeFrame(frAck, vh[:], data)
}

func (q *TCPQP) applyWrite(hasImm bool, p []byte) error {
	rkey := binary.LittleEndian.Uint32(p[8:])
	off := binary.LittleEndian.Uint64(p[12:])
	imm := binary.LittleEndian.Uint32(p[20:])
	mr, err := q.device.lookupMR(rkey)
	if err == nil {
		err = mr.remoteWrite(off, p[24:])
	}
	if err == nil && hasImm {
		q.deliverTCP(inboundMsg{imm: imm, hasImm: true})
	}
	return err
}

func (q *TCPQP) applyRead(p []byte) ([]byte, error) {
	rkey := binary.LittleEndian.Uint32(p[8:])
	off := binary.LittleEndian.Uint64(p[12:])
	n := binary.LittleEndian.Uint32(p[20:])
	if n > tcpMaxFrame/2 {
		return nil, ErrBounds
	}
	if cap(q.abuf) < int(n) {
		q.abuf = make([]byte, 0, n)
	}
	dst := q.abuf[:n]
	mr, err := q.device.lookupMR(rkey)
	if err == nil {
		err = mr.remoteRead(off, dst)
	}
	return dst, err
}

func (q *TCPQP) applyAtomic(cas bool, p []byte) (uint64, error) {
	rkey := binary.LittleEndian.Uint32(p[8:])
	off := binary.LittleEndian.Uint64(p[12:])
	compare := binary.LittleEndian.Uint64(p[20:])
	val := binary.LittleEndian.Uint64(p[28:])
	mr, err := q.device.lookupMR(rkey)
	if err != nil {
		return 0, err
	}
	return mr.remoteAtomic(off, cas, compare, val)
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

// applyAck retires, in op-id order, every awaited op up to the one an ack
// or NAK names. The earlier ones asked for no ack and were not NAKed, so
// they succeeded; one that did ask means the peer skipped an ack, and the
// QP moves to error. A NAK gives its op an error completion and moves the
// QP to error, which flushes the ops behind it. An ack for an op no longer
// awaited (flushed already) is dropped.
func (q *TCPQP) applyAck(p []byte) bool {
	opID := binary.LittleEndian.Uint64(p[0:])
	status := p[8]
	old := binary.LittleEndian.Uint64(p[9:])
	data := p[17:]

	q.mu.Lock()
	i := 0
	for ; i < len(q.awaits) && q.awaits[i].id < opID; i++ {
		if q.awaits[i].asked {
			q.mu.Unlock()
			return false
		}
	}
	var op pendingOp
	found := i < len(q.awaits) && q.awaits[i].id == opID
	if found {
		op = q.awaits[i]
		i++
	}
	dropFront(&q.awaits, i)
	if found && status != ackOK {
		// Remote access error: RC semantics move the QP to error state.
		q.sendCQ = append(q.sendCQ, Completion{
			WRID: op.wrID, Op: op.op, Status: StatusRemoteAccessError, Err: ErrBadRKey,
		})
	}
	q.mu.Unlock()
	if !found {
		return true
	}
	if status != ackOK {
		q.enterErrorTCP()
		return true
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
			return true
		}
		c = Completion{WRID: op.wrID, Op: op.op, Status: StatusOK}
	}
	q.mu.Lock()
	q.sendCQ = append(q.sendCQ, c)
	q.mu.Unlock()
	return true
}
