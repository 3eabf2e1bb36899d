package rdma

import (
	"sync"
	"sync/atomic"
)

// qpState is the simplified RC queue-pair state machine.
type qpState uint8

const (
	qpReady qpState = iota
	qpErr
	qpClosed
)

// postedRecv is a pre-posted receive buffer waiting for a message.
type postedRecv struct {
	wrID uint64
	buf  []byte
}

// inboundMsg is a SEND (or the notification half of WRITE_WITH_IMM)
// awaiting a posted receive on the target.
type inboundMsg struct {
	data   []byte
	imm    uint32
	hasImm bool
}

// QP is a reliable-connected queue pair on the in-process fabric. Its peer
// lives in the same process; one-sided operations copy directly between
// registered regions without the peer's involvement.
//
// QP implements Conn.
type QP struct {
	device *Device
	fabric *Fabric

	mu      sync.Mutex
	peer    *QP
	state   qpState
	failed  atomic.Bool // state has left qpReady: Failed reads it without mu
	sendCQ  []Completion
	polled  []Completion // what PollSend returned last
	recvCQ  []Completion
	recvQ   []postedRecv
	pending []inboundMsg // messages that arrived before a recv was posted
}

var _ Conn = (*QP)(nil)

// completeSend appends a send-side completion.
func (q *QP) completeSend(c Completion) {
	q.mu.Lock()
	q.sendCQ = append(q.sendCQ, c)
	q.mu.Unlock()
}

// enterError transitions to the error state (idempotent), flushing any
// posted receives as real hardware does.
func (q *QP) enterError() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.enterErrorLocked()
}

func (q *QP) enterErrorLocked() {
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
}

// checkReady returns the peer if the QP can transmit.
func (q *QP) checkReady() (*QP, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch q.state {
	case qpErr:
		return nil, ErrQPError
	case qpClosed:
		return nil, ErrQPClosed
	}
	if q.peer == nil {
		return nil, ErrQPClosed
	}
	return q.peer, nil
}

// PostWrite implements Conn.
func (q *QP) PostWrite(wrID uint64, rkey uint32, off uint64, data []byte, signaled bool) error {
	return q.postWrite(wrID, rkey, off, data, 0, false, signaled)
}

// PostWriteImm implements Conn.
func (q *QP) PostWriteImm(wrID uint64, rkey uint32, off uint64, data []byte, imm uint32, signaled bool) error {
	return q.postWrite(wrID, rkey, off, data, imm, true, signaled)
}

func (q *QP) postWrite(wrID uint64, rkey uint32, off uint64, data []byte, imm uint32, hasImm, signaled bool) error {
	peer, err := q.checkReady()
	if err != nil {
		return err
	}
	if hook := q.fabricHook(); hook != nil {
		var drop bool
		if data, drop = hook(OpWrite, data); drop {
			// Dropped by fault injection: reliable connections would retry
			// and eventually error; surface as a remote access error.
			q.enterError()
			q.completeSend(Completion{WRID: wrID, Op: OpWrite, Status: StatusRemoteAccessError, Err: ErrQPError})
			return nil
		}
	}
	mr, err := peer.device.lookupMR(rkey)
	if err == nil {
		err = mr.remoteWrite(off, data)
	}
	if err != nil {
		// Access violations transition the QP to error, as RC hardware does.
		q.enterError()
		q.completeSend(Completion{WRID: wrID, Op: OpWrite, Status: StatusRemoteAccessError, Err: err})
		return nil
	}
	if hasImm {
		peer.deliver(inboundMsg{imm: imm, hasImm: true})
	}
	if signaled {
		q.completeSend(Completion{WRID: wrID, Op: OpWrite, Status: StatusOK, Len: len(data)})
	}
	return nil
}

// PostRead implements Conn.
func (q *QP) PostRead(wrID uint64, rkey uint32, off uint64, dst []byte) error {
	peer, err := q.checkReady()
	if err != nil {
		return err
	}
	mr, err := peer.device.lookupMR(rkey)
	if err == nil {
		err = mr.remoteRead(off, dst)
	}
	if err != nil {
		q.enterError()
		q.completeSend(Completion{WRID: wrID, Op: OpRead, Status: StatusRemoteAccessError, Err: err})
		return nil
	}
	q.completeSend(Completion{WRID: wrID, Op: OpRead, Status: StatusOK, Len: len(dst)})
	return nil
}

// PostAtomicCAS performs a remote 8-byte compare-and-swap.
func (q *QP) PostAtomicCAS(wrID uint64, rkey uint32, off uint64, compare, swap uint64) error {
	return q.postAtomic(wrID, rkey, off, true, compare, swap)
}

// PostAtomicFAA performs a remote 8-byte fetch-and-add.
func (q *QP) PostAtomicFAA(wrID uint64, rkey uint32, off uint64, add uint64) error {
	return q.postAtomic(wrID, rkey, off, false, 0, add)
}

func (q *QP) postAtomic(wrID uint64, rkey uint32, off uint64, cas bool, compare, val uint64) error {
	peer, err := q.checkReady()
	if err != nil {
		return err
	}
	op := OpAtomicFAA
	if cas {
		op = OpAtomicCAS
	}
	mr, err := peer.device.lookupMR(rkey)
	var old uint64
	if err == nil {
		old, err = mr.remoteAtomic(off, cas, compare, val)
	}
	if err != nil {
		q.enterError()
		q.completeSend(Completion{WRID: wrID, Op: op, Status: StatusRemoteAccessError, Err: err})
		return nil
	}
	q.completeSend(Completion{WRID: wrID, Op: op, Status: StatusOK, OldVal: old, Len: 8})
	return nil
}

// PostSend implements Conn.
func (q *QP) PostSend(wrID uint64, data []byte, signaled, inline bool) error {
	peer, err := q.checkReady()
	if err != nil {
		return err
	}
	// Inline is a latency optimization only; semantics are identical. The
	// data is copied either way on this fabric.
	_ = inline
	msg := append([]byte(nil), data...)
	if hook := q.fabricHook(); hook != nil {
		var drop bool
		if msg, drop = hook(OpSend, msg); drop {
			q.enterError()
			q.completeSend(Completion{WRID: wrID, Op: OpSend, Status: StatusRemoteAccessError, Err: ErrQPError})
			return nil
		}
	}
	peer.deliver(inboundMsg{data: msg})
	if signaled {
		q.completeSend(Completion{WRID: wrID, Op: OpSend, Status: StatusOK, Len: len(data)})
	}
	return nil
}

// deliver matches an inbound message with a posted receive, or parks it
// (modelling infinite RNR retry on a reliable connection).
func (q *QP) deliver(msg inboundMsg) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.state != qpReady {
		return // message lost to a dead QP; sender already saw completions
	}
	if len(q.recvQ) == 0 {
		q.pending = append(q.pending, msg)
		return
	}
	r := q.recvQ[0]
	q.recvQ = q.recvQ[1:]
	q.recvCQ = append(q.recvCQ, makeRecvCompletion(r, msg))
}

func makeRecvCompletion(r postedRecv, msg inboundMsg) Completion {
	n := copy(r.buf, msg.data)
	op := OpRecv
	if msg.hasImm {
		op = OpRecvImm
	}
	return Completion{
		WRID: r.wrID, Op: op, Status: StatusOK,
		Len: n, Imm: msg.imm, HasImm: msg.hasImm, Buf: r.buf,
	}
}

// PostRecv implements Conn.
func (q *QP) PostRecv(wrID uint64, buf []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch q.state {
	case qpErr:
		return ErrQPError
	case qpClosed:
		return ErrQPClosed
	}
	r := postedRecv{wrID: wrID, buf: buf}
	if len(q.pending) > 0 {
		msg := q.pending[0]
		q.pending = q.pending[1:]
		q.recvCQ = append(q.recvCQ, makeRecvCompletion(r, msg))
		return nil
	}
	q.recvQ = append(q.recvQ, r)
	return nil
}

// PollSend implements Conn.
func (q *QP) PollSend(max int) []Completion {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.polled = popCompletions(&q.sendCQ, max, q.polled)
	return q.polled
}

// PollRecv implements Conn.
func (q *QP) PollRecv(max int) []Completion {
	q.mu.Lock()
	defer q.mu.Unlock()
	return popCompletions(&q.recvCQ, max, nil)
}

// popCompletions moves up to max completions from the head of *cq into
// out, emptied first, and returns it.
func popCompletions(cq *[]Completion, max int, out []Completion) []Completion {
	n := min(len(*cq), max)
	if n <= 0 {
		return out[:0]
	}
	out = append(out[:0], (*cq)[:n]...)
	dropFront(cq, n)
	return out
}

// PostBounded implements Conn: a post copies between registered regions
// of this process.
func (q *QP) PostBounded() bool { return true }

// SetError implements Conn. Both ends observe the failure, as tearing down
// an RC connection does.
func (q *QP) SetError() {
	q.mu.Lock()
	peer := q.peer
	q.enterErrorLocked()
	q.mu.Unlock()
	if peer != nil {
		peer.enterError()
	}
}

// Failed implements Conn.
func (q *QP) Failed() bool { return q.failed.Load() }

// Close implements Conn.
func (q *QP) Close() error {
	q.mu.Lock()
	if q.state == qpClosed {
		q.mu.Unlock()
		return nil
	}
	peer := q.peer
	q.state = qpClosed
	q.failed.Store(true)
	q.peer = nil
	q.mu.Unlock()
	if peer != nil {
		peer.enterError()
	}
	return nil
}

func (q *QP) fabricHook() Hook {
	if q.fabric == nil {
		return nil
	}
	return q.fabric.hook()
}
