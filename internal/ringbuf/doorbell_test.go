package ringbuf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"precursor/internal/rdma"
)

// mangleConn is the writer's conn with a fault in it: every nth write
// leaves with its first byte — a frame's start sign — flipped.
type mangleConn struct {
	rdma.Conn
	every, posted int
}

func (m *mangleConn) PostWrite(wrID uint64, rkey uint32, off uint64, data []byte, signaled bool) error {
	if m.posted++; m.posted%m.every == 0 {
		data = append([]byte(nil), data...)
		data[0] ^= 0x40
	}
	return m.Conn.PostWrite(wrID, rkey, off, data, signaled)
}

// ringOver builds a writer and a reader over two connected queue pairs,
// the ring registered on the reader's device.
func ringOver(t *testing.T, wq, rq rdma.Conn, wdev, rdev *rdma.Device, slots, slotSize int) (*Writer, *Reader) {
	t.Helper()
	ring := rdev.RegisterMemory(RingBytes(slots, slotSize), rdma.PermRemoteWrite)
	credit := wdev.RegisterMemory(CreditBytes, rdma.PermRemoteWrite)
	w, err := NewWriter(WriterConfig{Conn: wq, RingRKey: ring.RKey(), Slots: slots, SlotSize: slotSize, Credit: credit})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(ReaderConfig{Ring: ring, Slots: slots, SlotSize: slotSize, Conn: rq, CreditRKey: credit.RKey()})
	if err != nil {
		t.Fatal(err)
	}
	return w, r
}

// fabricPair is a writer's and a reader's queue pair on one of the two
// fabrics, and a way for a third party to reach the reader's device.
type fabricPair struct {
	wq, rq     rdma.Conn
	wdev, rdev *rdma.Device
	// dial connects another device to the reader's and returns its end.
	dial func() rdma.Conn
}

// fabrics builds a fabricPair on each fabric.
var fabrics = map[string]func(t *testing.T) fabricPair{
	"inproc": func(t *testing.T) fabricPair {
		f := rdma.NewFabric()
		wdev, _ := f.NewDevice("writer")
		rdev, _ := f.NewDevice("reader")
		wq, rq := f.ConnectRC(wdev, rdev)
		dial := func() rdma.Conn {
			odev, err := f.NewDevice(fmt.Sprintf("other-%d", time.Now().UnixNano()))
			if err != nil {
				t.Fatal(err)
			}
			oq, _ := f.ConnectRC(odev, rdev)
			return oq
		}
		return fabricPair{wq: wq, rq: rq, wdev: wdev, rdev: rdev, dial: dial}
	},
	"tcp": func(t *testing.T) fabricPair {
		rdev := rdma.NewDevice("reader")
		ln, err := rdma.ListenTCP(rdev, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ln.Close() })
		dial := func(dev *rdma.Device) (rdma.Conn, rdma.Conn) {
			accepted := make(chan *rdma.TCPQP, 1)
			go func() {
				q, _ := ln.Accept()
				accepted <- q
			}()
			dq, err := rdma.DialTCP(dev, ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			aq := <-accepted
			if aq == nil {
				t.Fatal("accept failed")
			}
			t.Cleanup(func() { _ = dq.Close(); _ = aq.Close() })
			return dq, aq
		}
		wdev := rdma.NewDevice("writer")
		wq, rq := dial(wdev)
		other := func() rdma.Conn {
			oq, _ := dial(rdma.NewDevice("other"))
			return oq
		}
		return fabricPair{wq: wq, rq: rq, wdev: wdev, rdev: rdev, dial: other}
	},
}

// TestDoorbellWriterRacesReader: a writer goroutine streams numbered
// frames through a small ring — thousands of wrap-arounds — while the
// reader polls it through the doorbell word, on both fabrics. Every frame
// arrives once and in order; a frame the reader slept through would stall
// the writer on credit and fail the test by its deadline. Every 257th
// frame leaves with a mangled start sign: the reader reports each as
// ErrCorrupt, consumes the slot and carries on with the frame behind it.
func TestDoorbellWriterRacesReader(t *testing.T) {
	const mangleEvery = 257
	frames := 100_000
	if testing.Short() {
		frames = 20_000
	}
	for name, connect := range fabrics {
		t.Run(name, func(t *testing.T) {
			p := connect(t)
			w, r := ringOver(t, &mangleConn{Conn: p.wq, every: mangleEvery}, p.rq, p.wdev, p.rdev, 8, 64)
			deadline := time.Now().Add(2 * time.Minute)

			writeErr := make(chan error, 1)
			go func() {
				var msg [8]byte
				for i := 0; i < frames; i++ {
					binary.LittleEndian.PutUint64(msg[:], uint64(i))
					if err := w.WriteDeadline(msg[:], deadline); err != nil {
						writeErr <- err
						return
					}
				}
				writeErr <- nil
			}()

			// The reader sleeps between empty polls, as every poller of a
			// TCP queue pair must (a spinning one starves the agents).
			wait := Ladder{Spin: 5 * time.Microsecond, Yield: 20 * time.Microsecond, Sleep: MinSleep}
			buf := make([]byte, 0, 64)
			corrupt, next := 0, 0
			for next < frames {
				if (next+1)%mangleEvery == 0 {
					next++ // this one left mangled: it arrives as ErrCorrupt, not as a frame
					continue
				}
				msg, ready, err := r.PollInto(buf)
				buf = msg[:0]
				switch {
				case errors.Is(err, ErrCorrupt):
					corrupt++
				case err != nil:
					t.Fatalf("poll: %v", err)
				case ready:
					wait.Done()
					if got := binary.LittleEndian.Uint64(msg); got != uint64(next) {
						t.Fatalf("frame %d arrived where %d was due", got, next)
					}
					next++
				default:
					if !wait.Wait(deadline) {
						t.Fatalf("no frame by the deadline: %d of %d delivered, a frame was slept through", next, frames)
					}
				}
			}
			if err := <-writeErr; err != nil {
				t.Fatalf("writer: %v", err)
			}
			if want := frames / mangleEvery; corrupt != want {
				t.Errorf("%d slots reported corrupt, want %d", corrupt, want)
			}
			if _, ready, err := r.PollInto(buf); ready || err != nil {
				t.Errorf("ring not empty at the end: ready=%v err=%v", ready, err)
			}
		})
	}
}

// TestFrameBetweenBellLoadAndLookIsNotLost drives the two halves of a
// poll by hand around a write, in the interleaving a lock-free doorbell
// can lose a frame in.
func TestFrameBetweenBellLoadAndLookIsNotLost(t *testing.T) {
	tr := newTestRing(t, 4, 64, 1)
	r := tr.reader
	send := func(s string) {
		t.Helper()
		if ok, err := tr.writer.TryWrite([]byte(s)); !ok || err != nil {
			t.Fatalf("write %q: ok=%v err=%v", s, ok, err)
		}
	}
	expect := func(want string) {
		t.Helper()
		if msg, ready, err := r.Poll(); !ready || err != nil || string(msg) != want {
			t.Fatalf("poll = %q ready=%v err=%v, want %q", msg, ready, err, want)
		}
	}

	// The frame lands after the word is loaded and before the slot is
	// looked at: the look finds it.
	bell, rang := r.bellLocked()
	if !rang {
		t.Fatal("a reader that never looked reports the ring idle")
	}
	send("between")
	if msg, ready, err := r.lookLocked(nil, bell); !ready || err != nil || string(msg) != "between" {
		t.Fatalf("look after the write = %q ready=%v err=%v", msg, ready, err)
	}

	// The frame lands after an empty look: that look remembered the word
	// as loaded before it, the write moved the word, the next poll looks.
	bell, _ = r.bellLocked()
	if _, ready, _ := r.lookLocked(nil, bell); ready {
		t.Fatal("empty ring delivered a frame")
	}
	if _, rang := r.bellLocked(); rang {
		t.Fatal("nothing landed, yet a look is due: an idle poll would take the region's lock")
	}
	send("after")
	if _, rang := r.bellLocked(); !rang {
		t.Fatal("a frame landed and no look is due: it is lost")
	}
	expect("after")

	// The stale word must not be remembered: load, a frame lands and is
	// consumed by a look under that older load, then the slot behind it is
	// empty — remembered under a load that already covers the write.
	bell, _ = r.bellLocked()
	send("first")
	if _, ready, _ := r.lookLocked(nil, bell); !ready {
		t.Fatal("frame not delivered")
	}
	if _, ready, _ := r.Poll(); ready {
		t.Fatal("empty ring delivered a frame")
	}
	send("second")
	expect("second")
}
