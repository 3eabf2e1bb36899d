package rdma

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

// Error-path coverage for the TCP fabric: dial failures, peers dying
// mid-message, and malformed/oversized frames. The recurring assertion
// is that every failure surfaces as a typed error or a flushed
// completion — an initiator must never poll forever on a dead QP.

// rawAccept returns a TCP listener plus a channel yielding the raw
// net.Conn of the next connection, for tests that play a misbehaving
// peer by hand instead of running a NIC agent.
func rawAccept(t *testing.T) (net.Listener, <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	ch := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			ch <- c
		}
	}()
	return ln, ch
}

// postSendErrWait posts sends until the QP reports its error state (the
// agent transitions it asynchronously) or the deadline passes.
func postSendErrWait(t *testing.T, q *TCPQP) error {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := q.PostSend(99, []byte("ping"), false, false); err != nil {
			return err
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal("QP never entered error state")
	return nil
}

func TestTCPDialFailure(t *testing.T) {
	// Grab a port that is guaranteed to have no listener behind it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	dev := NewDevice("tcp-dial-fail")
	if _, err := DialTCP(dev, addr); err == nil {
		t.Fatal("DialTCP to a closed port succeeded")
	}
}

func TestTCPOversizedPostRejected(t *testing.T) {
	_, serverDev, cliQP, _ := tcpPair(t)
	mr := serverDev.RegisterMemory(64, PermRemoteWrite)

	// The frame (header + payload) would exceed tcpMaxFrame: rejected
	// locally, before anything hits the wire.
	huge := make([]byte, tcpMaxFrame)
	if err := cliQP.PostWrite(1, mr.RKey(), 0, huge, true); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized PostWrite: got %v, want ErrFrameTooLarge", err)
	}
	if err := cliQP.PostSend(2, huge, true, false); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized PostSend: got %v, want ErrFrameTooLarge", err)
	}

	// The QP survives a rejected post: a sane write still completes.
	if err := cliQP.PostWrite(3, mr.RKey(), 0, []byte("ok"), true); err != nil {
		t.Fatal(err)
	}
	if c := pollSendWait(t, cliQP); c.Status != StatusOK || c.WRID != 3 {
		t.Fatalf("completion after rejected post = %+v", c)
	}

	// A rejected post initiated nothing, so it awaits nothing: when the QP
	// later fails, no completion may be flushed for wrID 1 or 2.
	if err := cliQP.PostWrite(4, mr.RKey(), 0, []byte("in flight or acked"), true); err != nil {
		t.Fatal(err)
	}
	cliQP.SetError()
	for _, c := range cliQP.PollSend(16) {
		if c.WRID == 1 || c.WRID == 2 {
			t.Errorf("phantom completion for a rejected post: %+v", c)
		}
	}
}

func TestTCPOversizedFrameHeaderKillsQP(t *testing.T) {
	ln, rawCh := rawAccept(t)
	dev := NewDevice("tcp-bad-header")
	qp, err := DialTCP(dev, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = qp.Close() })
	peer := <-rawCh
	defer peer.Close()

	// A header claiming a frame far beyond tcpMaxFrame must not make the
	// agent allocate or read it: the QP transitions to error state.
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(tcpMaxFrame+1))
	hdr[4] = frSend
	if _, err := peer.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if err := postSendErrWait(t, qp); !errors.Is(err, ErrQPError) {
		t.Fatalf("post after oversized header: got %v, want ErrQPError", err)
	}
}

func TestTCPZeroLengthFrameKillsQP(t *testing.T) {
	ln, rawCh := rawAccept(t)
	dev := NewDevice("tcp-zero-frame")
	qp, err := DialTCP(dev, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = qp.Close() })
	peer := <-rawCh
	defer peer.Close()

	if _, err := peer.Write(make([]byte, 5)); err != nil { // length 0
		t.Fatal(err)
	}
	if err := postSendErrWait(t, qp); !errors.Is(err, ErrQPError) {
		t.Fatalf("post after zero-length frame: got %v, want ErrQPError", err)
	}
}

func TestTCPMidMessageCloseFlushesAwaits(t *testing.T) {
	ln, rawCh := rawAccept(t)
	dev := NewDevice("tcp-midclose")
	qp, err := DialTCP(dev, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = qp.Close() })
	peer := <-rawCh

	// Initiate a signaled write; the "remote NIC" reads part of it and
	// dies without acking.
	if err := qp.PostWrite(7, 1, 0, []byte("never acknowledged"), true); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := peer.Read(buf); err != nil {
		t.Fatal(err)
	}
	_ = peer.Close()

	// The initiator must observe a flushed completion, not poll forever.
	c := pollSendWait(t, qp)
	if c.WRID != 7 || c.Status != StatusFlushed || !errors.Is(c.Err, ErrQPError) {
		t.Fatalf("completion = %+v, want WRID 7 flushed with ErrQPError", c)
	}
	if err := qp.PostSend(8, []byte("x"), false, false); !errors.Is(err, ErrQPError) {
		t.Fatalf("post after peer death: got %v, want ErrQPError", err)
	}
}

func TestTCPTruncatedFrameFlushesPostedRecvs(t *testing.T) {
	// Here the wrapped QP is the receiver: its peer advertises a 64-byte
	// frame, sends 5 bytes, and closes mid-message.
	serverDev := NewDevice("tcp-truncated")
	fln, err := ListenTCP(serverDev, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fln.Close() })
	qpCh := make(chan *TCPQP, 1)
	go func() {
		if q, err := fln.Accept(); err == nil {
			qpCh <- q
		}
	}()
	peer, err := net.Dial("tcp", fln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	qp := <-qpCh
	t.Cleanup(func() { _ = qp.Close() })

	if err := qp.PostRecv(11, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], 64)
	hdr[4] = frSend
	if _, err := peer.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Write([]byte("trunc")); err != nil {
		t.Fatal(err)
	}
	_ = peer.Close()

	c := pollRecvWait(t, qp)
	if c.WRID != 11 || c.Status != StatusFlushed || !errors.Is(c.Err, ErrQPError) {
		t.Fatalf("recv completion = %+v, want WRID 11 flushed with ErrQPError", c)
	}
}
