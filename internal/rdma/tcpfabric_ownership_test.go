package rdma

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The TCP fabric reuses one write scratch per connection and one read and
// one ack scratch per agent. These tests pin who may alias them: nothing
// a caller handed in or got back, at any frame size, on either side of
// the 64 KiB retention bound.

// pattern fills n bytes that depend on seed and position, so a byte that
// landed at the wrong offset or came from another frame is caught.
func pattern(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*131 + i*7 + i>>8)
	}
	return b
}

// sendCollector polls one QP's send CQ on behalf of several goroutines
// and hands each its own completions by wrID.
type sendCollector struct {
	q    Conn
	mu   sync.Mutex
	seen map[uint64]Completion
}

func (sc *sendCollector) wait(wrID uint64) (Completion, error) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		sc.mu.Lock()
		for _, c := range sc.q.PollSend(16) {
			sc.seen[c.WRID] = c
		}
		c, ok := sc.seen[wrID]
		delete(sc.seen, wrID)
		sc.mu.Unlock()
		if ok {
			return c, nil
		}
		time.Sleep(20 * time.Microsecond) // a spinning poller starves the agents' netpoll on a small host
	}
	return Completion{}, fmt.Errorf("no completion for wrID %d", wrID)
}

func TestTCPBufferOwnership(t *testing.T) {
	_, serverDev, cliQP, srvQP := tcpPair(t)
	sizes := []int{1, 7, 64, 1000, 4096, 65535, 65536 + 9, 300_000, 1 << 20}
	sendSizes := []int{16, 100, 5000, 70_000, 200_000}
	const workers = 2

	var total int
	for _, n := range sizes {
		total += n
	}
	sc := &sendCollector{q: cliQP, seen: make(map[uint64]Completion)}

	// The receiving side of the sends: buffers posted ahead, every message
	// checked against the seed its first two bytes name.
	const maxSend = 200_000
	nSends := workers * len(sendSizes)
	for i := 0; i < nSends; i++ {
		if err := srvQP.PostRecv(uint64(i), make([]byte, maxSend)); err != nil {
			t.Fatal(err)
		}
	}
	recvDone := make(chan error, 1)
	go func() {
		for got := 0; got < nSends; {
			comps := srvQP.PollRecv(4)
			if len(comps) == 0 {
				time.Sleep(20 * time.Microsecond)
				continue
			}
			for _, c := range comps {
				msg := c.Buf[:c.Len]
				if c.Status != StatusOK || len(msg) < 2 {
					recvDone <- fmt.Errorf("recv completion %+v", c)
					return
				}
				want := pattern(int(msg[0])<<8|int(msg[1]), len(msg))
				if !bytes.Equal(msg[2:], want[2:]) {
					recvDone <- fmt.Errorf("send of %d bytes (seed %d) arrived corrupted", len(msg), int(msg[0])<<8|int(msg[1]))
					return
				}
				got++
			}
		}
		recvDone <- nil
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w+1) << 32
			target := serverDev.RegisterMemory(total, PermRemoteWrite)
			source := serverDev.RegisterMemory(total, PermRemoteRead)
			source.WriteAt(0, pattern(1000+w, total))

			// Writes, pipelined: every other one unsignaled, the last a
			// signaled fence (an RC connection acks in order).
			var off int
			for i, n := range sizes {
				last := i == len(sizes)-1
				if err := cliQP.PostWrite(base+uint64(i), target.RKey(), uint64(off), pattern(w*100+i, n), i%2 == 0 || last); err != nil {
					t.Error(err)
					return
				}
				off += n
			}
			// Reads and sends ride the same pipeline, interleaved.
			dsts := make([][]byte, len(sizes))
			off = 0
			for i, n := range sizes {
				dsts[i] = make([]byte, n)
				if err := cliQP.PostRead(base+100+uint64(i), source.RKey(), uint64(off), dsts[i]); err != nil {
					t.Error(err)
					return
				}
				off += n
				if i < len(sendSizes) {
					seed := w*len(sendSizes) + i
					msg := pattern(seed, sendSizes[i])
					msg[0], msg[1] = byte(seed>>8), byte(seed)
					if err := cliQP.PostSend(base+200+uint64(i), msg, false, false); err != nil {
						t.Error(err)
						return
					}
				}
			}
			for i := range sizes {
				signaled := i%2 == 0 || i == len(sizes)-1
				if !signaled {
					continue
				}
				if c, err := sc.wait(base + uint64(i)); err != nil || c.Status != StatusOK {
					t.Errorf("write %d: %+v %v", i, c, err)
					return
				}
			}
			for i, n := range sizes {
				c, err := sc.wait(base + 100 + uint64(i))
				if err != nil || c.Status != StatusOK || c.Len != n {
					t.Errorf("read %d: %+v %v", i, c, err)
					return
				}
			}
			landed := make([]byte, total)
			target.ReadAt(0, landed)
			want := pattern(1000+w, total)
			off = 0
			for i, n := range sizes {
				if !bytes.Equal(landed[off:off+n], pattern(w*100+i, n)) {
					t.Errorf("worker %d: write %d (%d bytes) landed corrupted", w, i, n)
				}
				if !bytes.Equal(dsts[i], want[off:off+n]) {
					t.Errorf("worker %d: read %d (%d bytes) returned wrong bytes", w, i, n)
				}
				off += n
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	select {
	case err := <-recvDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sends never all arrived")
	}
	// Large frames are behind us: neither end may still hold their scratch.
	for _, q := range []*TCPQP{cliQP, srvQP} {
		q.wmu.Lock()
		if cap(q.wbuf) > maxRetainedScratch {
			t.Errorf("write scratch retains %d bytes", cap(q.wbuf))
		}
		q.wmu.Unlock()
	}
}

// TestTCPFabricAllocBudget pins the fabric's own cost per verb: a signaled
// PostWrite of a 1 KiB frame to its completion over loopback, both ends
// and their agents in this process. Nothing is left: PollSend returns the
// queue pair's own buffer. Run without -race (PRECURSOR_ALLOC_GATE
// pattern, `make allocgate`).
func TestTCPFabricAllocBudget(t *testing.T) {
	if os.Getenv("PRECURSOR_ALLOC_GATE") == "" {
		t.Skip("set PRECURSOR_ALLOC_GATE=1 to enforce the tcpfabric allocation budget")
	}
	const budget = 0.5
	_, serverDev, cliQP, _ := tcpPair(t)
	mr := serverDev.RegisterMemory(4096, PermRemoteWrite)
	frame := pattern(1, 1024)
	var failed bool
	write := func() {
		if err := cliQP.PostWrite(1, mr.RKey(), 0, frame, true); err != nil {
			failed = true
			return
		}
		for {
			if cs := cliQP.PollSend(1); len(cs) == 1 {
				failed = failed || cs[0].Status != StatusOK
				return
			}
			time.Sleep(10 * time.Microsecond)
		}
	}
	for i := 0; i < 200; i++ {
		write()
	}
	// Counted from MemStats: testing.AllocsPerRun rounds down.
	const n = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		write()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("signaled PostWrite to completion: %.2f allocs (budget %.1f)", got, budget)
	if failed {
		t.Fatal("a write failed")
	}
	if got > budget {
		t.Errorf("%.2f allocs per write exceeds the budget of %.1f", got, budget)
	}
}
