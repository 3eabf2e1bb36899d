package ringbuf

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"precursor/internal/rdma"
)

// tornMsg is the i-th message of the torn-frame test: its index, then a
// filler of mostly end signs, so that a look at the wrong offset — a stale
// length, a frame copied before its last bytes landed — finds an end sign
// there. Lengths vary, so every slot holds stale bytes past the live frame.
func tornMsg(i, max int) []byte {
	msg := make([]byte, 8+(i*7)%(max-8+1))
	binary.LittleEndian.PutUint64(msg, uint64(i))
	for k := 8; k < len(msg); k++ {
		msg[k] = EndSign
		if (k+i)%4 == 0 {
			msg[k] = byte(i + k)
		}
	}
	return msg
}

// tailFirstConn is an honest writer's conn that lands every frame in two
// writes: the tail (message and end sign), then the head (start sign and
// length). It keeps each frame for the replayer, publishes how many it
// posted, and holds a frame back while a replay of an earlier one is in
// flight, so that no replay lands in a slot the writer has reused.
type tailFirstConn struct {
	rdma.Conn
	frames [][]byte
	offs   []uint64
	posted atomic.Int64
	claim  *atomic.Int64 // index of the frame being replayed, or -1
}

func (c *tailFirstConn) PostWrite(wrID uint64, rkey uint32, off uint64, data []byte, signaled bool) error {
	i := c.posted.Load()
	for j := c.claim.Load(); j >= 0 && j < i; j = c.claim.Load() {
		time.Sleep(20 * time.Microsecond)
	}
	if err := c.Conn.PostWrite(wrID, rkey, off+headerLen, data[headerLen:], false); err != nil {
		return err
	}
	if err := c.Conn.PostWrite(wrID, rkey, off, data[:headerLen], signaled); err != nil {
		return err
	}
	c.frames[i], c.offs[i] = append([]byte(nil), data...), off
	c.posted.Add(1)
	return nil
}

// postAndWait posts one signaled write on q and waits for its completion.
func postAndWait(t *testing.T, q rdma.Conn, rkey uint32, off uint64, data []byte) {
	if err := q.PostWrite(1, rkey, off, data, true); err != nil {
		t.Errorf("replay write: %v", err)
		return
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Microsecond) {
		if cs := q.PollSend(1); len(cs) > 0 {
			if cs[0].Status != rdma.StatusOK {
				t.Errorf("replay write: %v", cs[0].Err)
			}
			return
		}
	}
	t.Error("replay write: no completion")
}

// TestTornAndReplayedFramesNeverDelivered: an honest writer lands every
// frame in two writes, tail first and then head, while a second writer on
// a connection of its own replays earlier frames into live slots, each in
// two torn writes of its own. On both fabrics, the reader — copying
// registered memory that either may be rewriting under it — delivers every
// honest frame exactly once, in order and whole, and nothing else.
func TestTornAndReplayedFramesNeverDelivered(t *testing.T) {
	const slots, slotSize = 8, 64
	frames := 20_000
	if testing.Short() {
		frames = 5_000
	}
	for name, connect := range fabrics {
		t.Run(name, func(t *testing.T) {
			p := connect(t)
			var claim atomic.Int64
			claim.Store(-1)
			honest := &tailFirstConn{Conn: p.wq, frames: make([][]byte, frames), offs: make([]uint64, frames), claim: &claim}
			w, r := ringOver(t, honest, p.rq, p.wdev, p.rdev, slots, slotSize)
			ringKey := r.ring.RKey()
			deadline := time.Now().Add(2 * time.Minute)

			writeErr := make(chan error, 1)
			go func() {
				for i := 0; i < frames; i++ {
					if err := w.WriteDeadline(tornMsg(i, w.MaxMessage()), deadline); err != nil {
						writeErr <- err
						return
					}
				}
				writeErr <- nil
			}()

			// The replayer claims a posted frame the reader has not consumed
			// yet, re-checks that under the reader's lock (a consumed count
			// is taken before that frame's credit goes out, so the writer
			// cannot reuse the slot before it sees the claim), then lands
			// the frame again behind its start sign: tail, then length.
			replayer := p.dial()
			stop := make(chan struct{})
			replays := make(chan int, 1)
			go func() {
				n := 0
				defer func() { replays <- n }()
				rng := rand.New(rand.NewSource(1))
				for {
					select {
					case <-stop:
						return
					default:
					}
					posted := honest.posted.Load()
					live := posted - int64(r.Consumed())
					if live <= 0 {
						time.Sleep(20 * time.Microsecond)
						continue
					}
					j := posted - 1 - rng.Int63n(live)
					claim.Store(j)
					if j >= int64(r.Consumed()) {
						frame, off := honest.frames[j], honest.offs[j]
						postAndWait(t, replayer, ringKey, off+headerLen, frame[headerLen:])
						postAndWait(t, replayer, ringKey, off+1, frame[1:headerLen])
						n++
					}
					claim.Store(-1)
				}
			}()

			wait := Ladder{Spin: 5 * time.Microsecond, Yield: 20 * time.Microsecond, Sleep: MinSleep}
			buf := make([]byte, 0, slotSize)
			for next := 0; next < frames; {
				msg, ready, err := r.PollInto(buf)
				buf = msg[:0]
				switch {
				case err != nil:
					t.Fatalf("poll at frame %d: %v", next, err)
				case ready:
					wait.Done()
					if want := tornMsg(next, w.MaxMessage()); !bytes.Equal(msg, want) {
						t.Fatalf("frame %d delivered as %x, want %x", next, msg, want)
					}
					next++
				default:
					if !wait.Wait(deadline) {
						t.Fatalf("no frame by the deadline: %d of %d delivered", next, frames)
					}
				}
			}
			close(stop)
			n := <-replays
			if err := <-writeErr; err != nil {
				t.Fatalf("writer: %v", err)
			}
			if n == 0 {
				t.Error("no replay landed: the test raced nothing")
			}
			if _, ready, err := r.PollInto(buf); ready || err != nil {
				t.Errorf("ring not empty at the end: ready=%v err=%v", ready, err)
			}
			t.Logf("%d frames delivered whole beside %d replays", frames, n)
		})
	}
}
