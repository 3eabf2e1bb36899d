package ringbuf

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"precursor/internal/rdma"
)

// TestMultipleRingsIndependent: rings for different clients in the same
// server memory must not interfere — the per-client isolation the design
// relies on.
func TestMultipleRingsIndependent(t *testing.T) {
	f := rdma.NewFabric()
	server, err := f.NewDevice("server")
	if err != nil {
		t.Fatal(err)
	}
	const nClients = 4
	type end struct {
		writer *Writer
		reader *Reader
	}
	ends := make([]end, nClients)
	for i := range ends {
		client, err := f.NewDevice(fmt.Sprintf("client-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		cq, sq := f.ConnectRC(client, server)
		ring := server.RegisterMemory(RingBytes(8, 128), rdma.PermRemoteWrite)
		credit := client.RegisterMemory(CreditBytes, rdma.PermRemoteWrite)
		w, err := NewWriter(WriterConfig{
			Conn: cq, RingRKey: ring.RKey(), Slots: 8, SlotSize: 128, Credit: credit,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(ReaderConfig{
			Ring: ring, Slots: 8, SlotSize: 128,
			Conn: sq, CreditRKey: credit.RKey(), CreditEvery: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ends[i] = end{writer: w, reader: r}
	}

	var wg sync.WaitGroup
	for i := range ends {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				msg := []byte(fmt.Sprintf("c%d-m%d", id, n))
				if err := write(ends[id].writer, msg); err != nil {
					t.Errorf("client %d write: %v", id, err)
					return
				}
			}
		}(i)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for n := 0; n < 200; {
				msg, ready, err := ends[id].reader.Poll()
				if err != nil {
					t.Errorf("client %d poll: %v", id, err)
					return
				}
				if !ready {
					continue
				}
				want := fmt.Sprintf("c%d-m%d", id, n)
				if string(msg) != want {
					t.Errorf("ring %d: got %q want %q", id, msg, want)
					return
				}
				n++
			}
		}(i)
	}
	wg.Wait()
}

// TestCreditFlushOnDemand: FlushCredits pushes the count immediately even
// below the periodic threshold.
func TestCreditFlushOnDemand(t *testing.T) {
	tr := newTestRing(t, 16, 128, 1000 /* effectively never automatic */)
	for i := 0; i < 3; i++ {
		if ok, err := tr.writer.TryWrite([]byte{byte(i)}); err != nil || !ok {
			t.Fatal(err)
		}
		if _, ready, err := tr.reader.Poll(); !ready || err != nil {
			t.Fatal(err)
		}
	}
	// No credits returned yet (threshold 1000): writer still sees 13 free.
	if got := tr.writer.Available(); got != 16-3 {
		t.Errorf("available before flush = %d", got)
	}
	if err := tr.reader.FlushCredits(); err != nil {
		t.Fatal(err)
	}
	if got := tr.writer.Available(); got != 16 {
		t.Errorf("available after flush = %d", got)
	}
	if tr.reader.Consumed() != 3 {
		t.Errorf("consumed = %d", tr.reader.Consumed())
	}
}

// TestMaxSizedMessage exercises the exact slot boundary.
func TestMaxSizedMessage(t *testing.T) {
	tr := newTestRing(t, 4, 256, 1)
	msg := bytes.Repeat([]byte{0x7}, tr.writer.MaxMessage())
	if ok, err := tr.writer.TryWrite(msg); err != nil || !ok {
		t.Fatalf("max message rejected: %v %v", ok, err)
	}
	got, ready, err := tr.reader.Poll()
	if err != nil || !ready || !bytes.Equal(got, msg) {
		t.Fatalf("max message poll: ready=%v err=%v", ready, err)
	}
}
