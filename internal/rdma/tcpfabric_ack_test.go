package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Coalesced acks: a successful op is acked only when its frame asks, one
// ack retires every earlier op that asked for none, and every failure is
// NAKed. These tests pin what the initiator observes under that rule.

// awaiting returns how many ops q still holds for retirement.
func awaiting(q *TCPQP) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.awaits)
}

// waitFor polls cond, sleeping between polls, until it holds or 10 s pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(20 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// rawFrame encodes one fabric frame by hand.
func rawFrame(ft byte, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(1+len(payload)))
	return append(append(b, ft), payload...)
}

// TestTCPUnknownFrameEndsQP: a frame of a type this framing does not know,
// or one too short for its verb header, moves the QP to error — the work
// it awaited is flushed, not left to a peer that may have dropped it.
func TestTCPUnknownFrameEndsQP(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ft      byte
		payload []byte
	}{
		{"unknown type", 0x40, make([]byte, 8)},
		{"unknown type asking an ack", 0x40 | frAckReq, make([]byte, 8)},
		{"write shorter than its header", frWrite | frAckReq, make([]byte, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, rawCh := rawAccept(t)
			qp, err := DialTCP(NewDevice("tcp-bad-frame"), ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = qp.Close() })
			peer := <-rawCh
			defer peer.Close()

			if err := qp.PostRecv(5, make([]byte, 16)); err != nil {
				t.Fatal(err)
			}
			if err := qp.PostWrite(6, 1, 0, []byte("never acked"), true); err != nil {
				t.Fatal(err)
			}
			stream := append(append([]byte(nil), fabricHello[:]...), rawFrame(tc.ft, tc.payload)...)
			if _, err := peer.Write(stream); err != nil {
				t.Fatal(err)
			}
			if c := pollSendWait(t, qp); c.WRID != 6 || c.Status != StatusFlushed || !errors.Is(c.Err, ErrQPError) {
				t.Fatalf("send completion = %+v, want WRID 6 flushed", c)
			}
			if c := pollRecvWait(t, qp); c.WRID != 5 || c.Status != StatusFlushed {
				t.Fatalf("recv completion = %+v, want WRID 5 flushed", c)
			}
			if err := qp.PostSend(7, []byte("x"), false, false); !errors.Is(err, ErrQPError) {
				t.Fatalf("post after the bad frame: %v, want ErrQPError", err)
			}
		})
	}
}

// TestTCPPeerWithoutHelloIsRefused: a peer that starts with a frame rather
// than fabricHello — one built before coalesced acks — is refused, not
// served under rules it does not follow.
func TestTCPPeerWithoutHelloIsRefused(t *testing.T) {
	ln, rawCh := rawAccept(t)
	qp, err := DialTCP(NewDevice("tcp-old-peer"), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = qp.Close() })
	peer := <-rawCh
	defer peer.Close()
	hello := make([]byte, len(fabricHello))
	if _, err := io.ReadFull(peer, hello); err != nil || !bytes.Equal(hello, fabricHello[:]) {
		t.Fatalf("the QP opened with %x (%v), want fabricHello", hello, err)
	}
	if err := qp.PostRecv(1, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Write(rawFrame(frSend, make([]byte, 12))); err != nil {
		t.Fatal(err)
	}
	if c := pollRecvWait(t, qp); c.Status != StatusFlushed {
		t.Fatalf("an old peer's send was delivered: %+v", c)
	}
}

// TestTCPAckRuleConcurrentMix: goroutines post signaled and unsignaled
// writes, reads, and signaled and unsignaled sends on one QP at once.
// Every signaled op completes exactly once and OK, nothing unsignaled
// completes, every read returns its bytes and every send arrives; what is
// left awaiting retirement stays under ackEvery.
func TestTCPAckRuleConcurrentMix(t *testing.T) {
	_, serverDev, cliQP, srvQP := tcpPair(t)
	const workers, opsEach = 6, 400
	target := serverDev.RegisterMemory(workers*opsEach*8, PermRemoteWrite)
	source := serverDev.RegisterMemory(4096, PermRemoteRead)
	source.WriteAt(0, pattern(9, 4096))
	sends := workers * opsEach / 4
	for i := 0; i < sends; i++ {
		if err := srvQP.PostRecv(uint64(i), make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
	}

	want := make(map[uint64]bool) // signaled wrIDs
	var wmu sync.Mutex
	dsts := make([][]byte, workers*opsEach)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				n := w*opsEach + i
				wrID := uint64(n) + 1
				var err error
				signaled := true
				switch i % 4 {
				case 0, 1: // writes, one in four signaled
					signaled = i%8 == 1
					err = cliQP.PostWrite(wrID, target.RKey(), uint64(n*8), pattern(n, 8), signaled)
				case 2:
					dsts[n] = make([]byte, 16)
					err = cliQP.PostRead(wrID, source.RKey(), uint64(n%256), dsts[n])
				case 3:
					signaled = i%8 == 7
					err = cliQP.PostSend(wrID, pattern(n, 32), signaled, false)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if signaled {
					wmu.Lock()
					want[wrID] = true
					wmu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	seen := make(map[uint64]int)
	got := 0
	waitFor(t, "every signaled completion", func() bool {
		for _, c := range cliQP.PollSend(64) {
			if c.Status != StatusOK {
				t.Fatalf("completion %+v", c)
			}
			seen[c.WRID]++
			got++
		}
		return got >= len(want)
	})
	time.Sleep(10 * time.Millisecond) // room for a duplicate to show
	for _, c := range cliQP.PollSend(64) {
		seen[c.WRID]++
	}
	for wrID, n := range seen {
		if !want[wrID] {
			t.Errorf("unsignaled op %d completed", wrID)
		} else if n != 1 {
			t.Errorf("op %d completed %d times", wrID, n)
		}
	}
	for wrID := range want {
		if seen[wrID] == 0 {
			t.Errorf("signaled op %d never completed", wrID)
		}
	}
	src := pattern(9, 4096)
	for n, d := range dsts {
		if d != nil && !bytes.Equal(d, src[n%256:n%256+16]) {
			t.Errorf("read %d returned wrong bytes", n)
		}
	}
	delivered := 0
	waitFor(t, "every send", func() bool {
		delivered += len(srvQP.PollRecv(64))
		return delivered >= sends
	})
	if n := awaiting(cliQP); n >= ackEvery {
		t.Errorf("%d ops still await retirement, want under %d", n, ackEvery)
	}
}

// TestTCPUnsignaledStreamIsRetired: a stream of unsignaled writes only —
// credit returns look like this — asks for an ack on every ackEvery-th op,
// and each ack retires the whole run before it: the queue of ops awaiting
// retirement empties every ackEvery posts, and the responder sends exactly
// one ack per ackEvery writes. Its agent needs at most one read from the
// socket per frame.
func TestTCPUnsignaledStreamIsRetired(t *testing.T) {
	clientDev, serverDev, cliQP, _ := tcpPair(t)
	mr := serverDev.RegisterMemory(64, PermRemoteWrite)
	const n = 40 * ackEvery
	for i := 1; i <= n; i++ {
		if err := cliQP.PostWrite(uint64(i), mr.RKey(), 0, []byte{byte(i)}, false); err != nil {
			t.Fatal(err)
		}
		if max := awaiting(cliQP); max > ackEvery {
			t.Fatalf("%d ops await retirement after %d posts, want at most %d", max, i, ackEvery)
		}
		if i%ackEvery == 0 {
			waitFor(t, fmt.Sprintf("the ack for op %d", i), func() bool { return awaiting(cliQP) == 0 })
		}
	}
	if cs := cliQP.PollSend(16); len(cs) != 0 {
		t.Errorf("unsignaled writes completed: %+v", cs)
	}
	st := serverDev.FabricStats()
	if st.AcksSent != n/ackEvery || st.FramesRead != n {
		t.Errorf("responder read %d frames and sent %d acks, want %d and %d", st.FramesRead, st.AcksSent, n, n/ackEvery)
	}
	if st.Reads > st.FramesRead+1 {
		t.Errorf("%d socket reads for %d frames (and the hello)", st.Reads, st.FramesRead)
	}
	if cli := clientDev.FabricStats(); cli.FramesWritten != n || cli.FramesRead != n/ackEvery {
		t.Errorf("initiator wrote %d frames and read %d, want %d and %d", cli.FramesWritten, cli.FramesRead, n, n/ackEvery)
	}
}

// TestTCPNAKOfUnackedWrite: an unsignaled write that asks for no ack and
// fails remotely still surfaces — an error completion with its wrID, the QP
// in error, and the ops posted behind it flushed in order; the unsignaled
// ops before it complete silently.
func TestTCPNAKOfUnackedWrite(t *testing.T) {
	_, serverDev, cliQP, _ := tcpPair(t)
	mr := serverDev.RegisterMemory(64, PermRemoteWrite)
	for i := uint64(1); i <= 3; i++ {
		if err := cliQP.PostWrite(i, mr.RKey(), 0, []byte("fine"), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := cliQP.PostWrite(4, mr.RKey(), 60, []byte("past the end"), false); err != nil {
		t.Fatal(err)
	}
	var later []uint64
	for i := uint64(5); i <= 7; i++ {
		err := cliQP.PostWrite(i, mr.RKey(), 0, []byte("later"), true)
		if errors.Is(err, ErrQPError) {
			break // the NAK is already in
		}
		if err != nil {
			t.Fatal(err)
		}
		later = append(later, i)
	}
	var cs []Completion
	waitFor(t, "the NAK and the flush", func() bool {
		cs = append(cs, cliQP.PollSend(16)...)
		return len(cs) >= 1+len(later)
	})
	if c := cs[0]; c.WRID != 4 || c.Status != StatusRemoteAccessError {
		t.Fatalf("first completion = %+v, want WRID 4 with a remote access error", c)
	}
	for i, wrID := range later {
		if c := cs[1+i]; c.WRID != wrID || c.Status != StatusFlushed || !errors.Is(c.Err, ErrQPError) {
			t.Errorf("completion %d = %+v, want WRID %d flushed", 1+i, c, wrID)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if extra := cliQP.PollSend(16); len(extra) != 0 {
		t.Errorf("completions past the flush: %+v", extra)
	}
	if err := cliQP.PostWrite(8, mr.RKey(), 0, []byte("x"), true); !errors.Is(err, ErrQPError) {
		t.Errorf("post after the NAK: %v, want ErrQPError", err)
	}
}

// deadlineConn counts the write deadlines set on a connection.
type deadlineConn struct {
	net.Conn
	sets atomic.Int64
}

func (c *deadlineConn) SetWriteDeadline(d time.Time) error {
	c.sets.Add(1)
	return c.Conn.SetWriteDeadline(d)
}

// TestTCPWriteDeadlineArmedOncePerWindow: the socket's write deadline is
// re-armed only once less than half of tcpWriteStall is left — not per
// frame — and a write into a peer that stopped reading is still given up
// on within tcpWriteStall.
func TestTCPWriteDeadlineArmedOncePerWindow(t *testing.T) {
	ln, rawCh := rawAccept(t)
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_ = raw.(*net.TCPConn).SetWriteBuffer(4 << 10)
	dc := &deadlineConn{Conn: raw}
	qp := NewTCPQP(NewDevice("tcp-deadline"), dc)
	t.Cleanup(func() { _ = qp.Close() })
	peer := <-rawCh
	defer peer.Close()
	_ = peer.(*net.TCPConn).SetReadBuffer(4 << 10)

	// The peer drains while a few hundred small frames go out.
	drained := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, 64<<10)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = peer.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
			_, _ = peer.Read(buf)
		}
	}()
	start := time.Now()
	const frames = 500
	for i := 0; i < frames; i++ {
		if err := qp.PostSend(uint64(i), []byte("small frame"), false, false); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if sets, max := dc.sets.Load(), 2+int64(elapsed/(tcpWriteStall/2)); sets > max {
		t.Errorf("write deadline set %d times for %d frames in %v, want at most %d", sets, frames, elapsed, max)
	}
	close(stop)
	<-drained

	// Now the peer reads nothing: a large frame stalls and is given up on.
	start = time.Now()
	err = qp.PostSend(frames, make([]byte, 2<<20), false, false)
	if took := time.Since(start); err == nil || took > tcpWriteStall+time.Second {
		t.Fatalf("stalled write returned %v after %v, want an error within %v", err, took, tcpWriteStall)
	}
}
