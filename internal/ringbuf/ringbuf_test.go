package ringbuf

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"precursor/internal/rdma"
)

// testRing wires a writer on devA to a ring registered on devB.
type testRing struct {
	fabric   *rdma.Fabric
	ringMR   *rdma.MemoryRegion
	creditMR *rdma.MemoryRegion // the writer's credit word, which the reader deposits into
	writer   *Writer
	reader   *Reader
}

// write is WriteDeadline with a bound no passing test reaches.
func write(w *Writer, msg []byte) error {
	return w.WriteDeadline(msg, time.Now().Add(10*time.Second))
}

func newTestRing(t *testing.T, slots, slotSize, creditEvery int) *testRing {
	t.Helper()
	f := rdma.NewFabric()
	client, err := f.NewDevice("client")
	if err != nil {
		t.Fatal(err)
	}
	server, err := f.NewDevice("server")
	if err != nil {
		t.Fatal(err)
	}
	cqp, sqp := f.ConnectRC(client, server)

	ring := server.RegisterMemory(RingBytes(slots, slotSize), rdma.PermRemoteWrite)
	credit := client.RegisterMemory(CreditBytes, rdma.PermRemoteWrite)

	w, err := NewWriter(WriterConfig{
		Conn: cqp, RingRKey: ring.RKey(), Slots: slots, SlotSize: slotSize,
		Credit: credit,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(ReaderConfig{
		Ring: ring, Slots: slots, SlotSize: slotSize,
		Conn: sqp, CreditRKey: credit.RKey(), CreditEvery: creditEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &testRing{fabric: f, ringMR: ring, creditMR: credit, writer: w, reader: r}
}

func TestRoundTripSingle(t *testing.T) {
	tr := newTestRing(t, 8, 256, 1)
	msg := []byte("first request")
	ok, err := tr.writer.TryWrite(msg)
	if err != nil || !ok {
		t.Fatalf("TryWrite: %v %v", ok, err)
	}
	got, ready, err := tr.reader.Poll()
	if err != nil || !ready {
		t.Fatalf("Poll: %v %v", ready, err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("got %q", got)
	}
	// Ring is now empty.
	if _, ready, _ := tr.reader.Poll(); ready {
		t.Error("Poll returned a second message")
	}
}

func TestFIFOOrder(t *testing.T) {
	tr := newTestRing(t, 16, 128, 1)
	for i := 0; i < 10; i++ {
		if ok, err := tr.writer.TryWrite([]byte{byte(i)}); err != nil || !ok {
			t.Fatalf("write %d: %v %v", i, ok, err)
		}
	}
	for i := 0; i < 10; i++ {
		msg, ready, err := tr.reader.Poll()
		if err != nil || !ready {
			t.Fatalf("poll %d: %v %v", i, ready, err)
		}
		if msg[0] != byte(i) {
			t.Fatalf("out of order: got %d want %d", msg[0], i)
		}
	}
}

func TestBackpressureAndCredits(t *testing.T) {
	tr := newTestRing(t, 4, 128, 1)
	// Fill the ring.
	for i := 0; i < 4; i++ {
		if ok, err := tr.writer.TryWrite([]byte{byte(i)}); err != nil || !ok {
			t.Fatalf("fill %d: %v %v", i, ok, err)
		}
	}
	// No credit left.
	if ok, err := tr.writer.TryWrite([]byte{9}); err != nil || ok {
		t.Fatalf("overfull write accepted: %v %v", ok, err)
	}
	if tr.writer.Available() != 0 {
		t.Errorf("Available = %d", tr.writer.Available())
	}
	// Consume one; credit returns (creditEvery=1 flushes immediately).
	if _, ready, err := tr.reader.Poll(); !ready || err != nil {
		t.Fatalf("poll: %v %v", ready, err)
	}
	if tr.writer.Available() != 1 {
		t.Errorf("Available after consume = %d", tr.writer.Available())
	}
	if ok, err := tr.writer.TryWrite([]byte{9}); err != nil || !ok {
		t.Fatalf("write after credit: %v %v", ok, err)
	}
}

func TestWrapAround(t *testing.T) {
	tr := newTestRing(t, 4, 128, 1)
	for round := 0; round < 25; round++ {
		msg := []byte(fmt.Sprintf("round-%02d", round))
		if ok, err := tr.writer.TryWrite(msg); err != nil || !ok {
			t.Fatalf("write %d: %v %v", round, ok, err)
		}
		got, ready, err := tr.reader.Poll()
		if err != nil || !ready {
			t.Fatalf("poll %d: %v %v", round, ready, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round %d: got %q", round, got)
		}
	}
}

func TestOversizedMessage(t *testing.T) {
	tr := newTestRing(t, 4, 64, 1)
	if _, err := tr.writer.TryWrite(make([]byte, 64)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("got %v", err)
	}
	if tr.writer.MaxMessage() != 64-Overhead {
		t.Errorf("MaxMessage = %d", tr.writer.MaxMessage())
	}
}

func TestEmptyMessage(t *testing.T) {
	tr := newTestRing(t, 4, 64, 1)
	if ok, err := tr.writer.TryWrite(nil); err != nil || !ok {
		t.Fatalf("TryWrite(nil): %v %v", ok, err)
	}
	msg, ready, err := tr.reader.Poll()
	if err != nil || !ready || len(msg) != 0 {
		t.Fatalf("Poll: %q %v %v", msg, ready, err)
	}
}

// TestCorruptFramingSkipped: a frame whose framing bytes were mangled in
// flight — by an adversary, a rogue client (§3.9) or a flipped bit — is
// reported as ErrCorrupt and skipped, and the frame behind it is still
// delivered: one bad slot must not wedge the ring.
func TestCorruptFramingSkipped(t *testing.T) {
	for name, mangle := range map[string]func(mr *rdma.MemoryRegion){
		"impossible length":  func(mr *rdma.MemoryRegion) { mr.WriteAt(1, []byte{0xff, 0xff, 0xff, 0x7f}) },
		"flipped start sign": func(mr *rdma.MemoryRegion) { mr.SetByte(0, StartSign^0x40) },
		"shortened length":   func(mr *rdma.MemoryRegion) { mr.WriteAt(1, []byte{2, 0, 0, 0}) },
		"flipped end sign":   func(mr *rdma.MemoryRegion) { mr.SetByte(headerLen+len("first"), EndSign^0x01) },
	} {
		t.Run(name, func(t *testing.T) {
			tr := newTestRing(t, 4, 64, 1)
			if err := write(tr.writer, []byte("first")); err != nil {
				t.Fatal(err)
			}
			mangle(tr.ringMR)
			if err := write(tr.writer, []byte("second")); err != nil {
				t.Fatal(err)
			}
			if _, ready, err := tr.reader.Poll(); ready || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("mangled slot: ready=%v err=%v, want ErrCorrupt", ready, err)
			}
			if msg, ready, err := tr.reader.Poll(); !ready || err != nil || string(msg) != "second" {
				t.Fatalf("frame behind the mangled slot: %q ready=%v err=%v", msg, ready, err)
			}
		})
	}
}

// TestCorruptCreditIgnored: the credit word is written by the untrusted
// peer, so a value outside [last accepted, sent] — a flipped bit, a
// replayed or forged write — must change nothing: the writer keeps the
// credit it last accepted (never more, never none) and the reader's next
// genuine credit write takes over.
func TestCorruptCreditIgnored(t *testing.T) {
	for name, word := range map[string]uint64{
		"flipped top bit":      2 | 1<<63, // at the parent commit: sent−consumed underflows, no credit ever again
		"beyond sent":          7,         // would grant slots still unread
		"behind last accepted": 1,         // a replayed older count
	} {
		t.Run(name, func(t *testing.T) {
			tr := newTestRing(t, 4, 64, 1)
			for i := 0; i < 3; i++ {
				if err := write(tr.writer, []byte("frame")); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ {
				if _, ready, err := tr.reader.Poll(); !ready || err != nil {
					t.Fatalf("poll %d: ready=%v err=%v", i, ready, err)
				}
			}
			if got := tr.writer.Available(); got != 3 {
				t.Fatalf("available after 3 sent, 2 consumed = %d, want 3", got)
			}
			tr.creditMR.WriteUint64(0, word)
			if got := tr.writer.Available(); got != 3 {
				t.Fatalf("available after credit word %#x = %d, want the last accepted 3", word, got)
			}
			if ok, err := tr.writer.TryWrite([]byte("after")); !ok || err != nil {
				t.Fatalf("write after the bad credit word: ok=%v err=%v", ok, err)
			}
			// The reader's next deposit overwrites the bad word.
			if _, ready, err := tr.reader.Poll(); !ready || err != nil {
				t.Fatalf("poll after the bad credit word: ready=%v err=%v", ready, err)
			}
			if got := tr.writer.Available(); got != 3 {
				t.Fatalf("available after 4 sent, 3 consumed = %d, want 3", got)
			}
		})
	}
}

func TestIncompleteFrameNotDelivered(t *testing.T) {
	tr := newTestRing(t, 4, 64, 1)
	// Start sign + length but no end sign: write still in flight.
	tr.ringMR.SetByte(0, StartSign)
	tr.ringMR.WriteAt(1, []byte{5, 0, 0, 0})
	if _, ready, err := tr.reader.Poll(); ready || err != nil {
		t.Errorf("incomplete frame delivered: %v %v", ready, err)
	}
}

func TestRevokedWriterSurfacesError(t *testing.T) {
	f := rdma.NewFabric()
	client, _ := f.NewDevice("c")
	server, _ := f.NewDevice("s")
	cqp, sqp := f.ConnectRC(client, server)
	ring := server.RegisterMemory(RingBytes(4, 64), rdma.PermRemoteWrite)
	credit := client.RegisterMemory(CreditBytes, rdma.PermRemoteWrite)
	w, err := NewWriter(WriterConfig{Conn: cqp, RingRKey: ring.RKey(), Slots: 4, SlotSize: 64, Credit: credit})
	if err != nil {
		t.Fatal(err)
	}
	sqp.SetError() // server revokes the client
	if _, err := w.TryWrite([]byte("x")); err == nil {
		t.Error("write through revoked QP succeeded")
	}
}

// TestStreamQuick pushes a random message stream through a small ring with
// concurrent reader and writer and checks exact FIFO delivery.
func TestStreamQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		slots := rng.Intn(7) + 2
		slotSize := 64 + rng.Intn(128)
		tr := newTestRing(t, slots, slotSize, 1)
		n := 200
		msgs := make([][]byte, n)
		for i := range msgs {
			m := make([]byte, rng.Intn(slotSize-Overhead))
			rng.Read(m)
			msgs[i] = m
		}
		var wg sync.WaitGroup
		wg.Add(1)
		errCh := make(chan error, 1)
		go func() {
			defer wg.Done()
			for _, m := range msgs {
				if err := write(tr.writer, m); err != nil {
					errCh <- err
					return
				}
			}
		}()
		received := 0
		for received < n {
			msg, ready, err := tr.reader.Poll()
			if err != nil {
				t.Errorf("poll: %v", err)
				return false
			}
			if !ready {
				continue
			}
			if !bytes.Equal(msg, msgs[received]) {
				t.Errorf("message %d mismatch", received)
				return false
			}
			received++
		}
		wg.Wait()
		select {
		case err := <-errCh:
			t.Errorf("writer: %v", err)
			return false
		default:
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewWriter(WriterConfig{Slots: 0, SlotSize: 64}); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := NewWriter(WriterConfig{Slots: 4, SlotSize: 3}); err == nil {
		t.Error("tiny slot accepted")
	}
	if _, err := NewReader(ReaderConfig{Slots: 4, SlotSize: 64}); err == nil {
		t.Error("nil ring accepted")
	}
}
