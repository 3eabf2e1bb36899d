package faultfab

import (
	"sync"
	"time"

	"precursor/internal/rdma"
)

// Conn is a fault-injecting rdma.Conn: every outbound verb is run
// through the fabric's seeded fault schedule before (maybe, eventually,
// possibly twice, possibly mangled) reaching the wrapped conn. Inbound
// surfaces — PostRecv, PollSend, PollRecv — pass straight through:
// faults on the opposite flow are injected by wrapping the peer
// endpoint with the opposite Direction.
type Conn struct {
	fab   *Fabric
	inner rdma.Conn
	dir   Direction
	label string
	probs ClassMap

	mu     sync.Mutex
	rng    uint64
	frame  uint64
	held   []heldFrame // frames parked by a one-way partition, in order
	closed bool
}

type heldFrame struct {
	deliver func()
}

var _ rdma.Conn = (*Conn)(nil)

// Inner returns the wrapped conn.
func (c *Conn) Inner() rdma.Conn { return c.inner }

// Label returns the conn's schedule label.
func (c *Conn) Label() string { return c.label }

// next draws the next pseudo-random word from this conn's stream.
// Callers hold c.mu.
func (c *Conn) next() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// nextFloat draws uniformly from [0, 1).
func (c *Conn) nextFloat() float64 {
	return float64(c.next()>>11) / (1 << 53)
}

// nextDelay draws a delivery lateness in (0, max].
func (c *Conn) nextDelay(max time.Duration) time.Duration {
	return 1 + time.Duration(c.next()%uint64(max))
}

// post is the single fault point: it draws this frame's fate and either
// delivers now, delivers late, delivers twice, delivers mangled, drops,
// or resets the connection. data may be nil for payload-free verbs
// (reads, atomics), which restricts the fault menu to delay/drop/reset.
func (c *Conn) post(class OpClass, data []byte, deliver func(d []byte) error) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return rdma.ErrQPClosed
	}
	c.frame++
	ev := Event{Label: c.label, Dir: c.dir, Class: class, Frame: c.frame}

	if c.fab.Partitioned(c.dir) {
		// One-way partition: park the frame, in order, until Heal.
		cp := cloneBytes(data)
		c.held = append(c.held, heldFrame{deliver: func() { _ = deliver(cp) }})
		c.mu.Unlock()
		ev.Kind = FaultHold
		c.fab.record(ev)
		return nil
	}

	probs, faulty := c.probs[class]
	if !faulty {
		c.mu.Unlock()
		c.fab.record(ev)
		return deliver(data)
	}

	u := c.nextFloat()
	maxDelay := probs.maxDelay()
	switch {
	case u < probs.Drop:
		ev.Kind = FaultDrop
		if c.fab.cfg.HardLoss {
			// The frame is gone. The initiator believes it sent; only a
			// higher-layer timeout can notice.
			c.mu.Unlock()
			c.fab.record(ev)
			return nil
		}
		// RC retransmission: the "lost" packet is redelivered late — at
		// least one full delay bound, up to two.
		ev.Delay = maxDelay + c.nextDelay(maxDelay)
		cp := cloneBytes(data)
		c.mu.Unlock()
		c.fab.record(ev)
		c.scheduleLate(ev.Delay, func() { _ = deliver(cp) })
		return nil

	case u < probs.Drop+probs.Dup && data != nil:
		ev.Kind = FaultDup
		ev.Delay = c.nextDelay(maxDelay)
		cp := cloneBytes(data)
		c.mu.Unlock()
		c.fab.record(ev)
		// Original now, replay later.
		err := deliver(data)
		c.scheduleLate(ev.Delay, func() { _ = deliver(cp) })
		return err

	case u < probs.Drop+probs.Dup+probs.Corrupt && len(data) > 0:
		ev.Kind = FaultCorrupt
		cp := cloneBytes(data)
		flips := 1 + int(c.next()%3)
		for i := 0; i < flips; i++ {
			bit := int(c.next() % uint64(len(cp)*8))
			cp[bit/8] ^= 1 << (bit % 8)
		}
		c.mu.Unlock()
		c.fab.record(ev)
		return deliver(cp)

	case u < probs.Drop+probs.Dup+probs.Corrupt+probs.Delay:
		ev.Kind = FaultDelay
		ev.Delay = c.nextDelay(maxDelay)
		cp := cloneBytes(data)
		c.mu.Unlock()
		c.fab.record(ev)
		c.scheduleLate(ev.Delay, func() { _ = deliver(cp) })
		return nil

	case u < probs.Drop+probs.Dup+probs.Corrupt+probs.Delay+probs.Reset:
		ev.Kind = FaultReset
		c.mu.Unlock()
		c.fab.record(ev)
		// RC retry exhaustion / adversarial teardown: both ends observe
		// the error state, outstanding receives flush.
		c.inner.SetError()
		return nil

	default:
		c.mu.Unlock()
		c.fab.record(ev)
		return deliver(data)
	}
}

// scheduleLate fires deliver after d, unless the conn has closed; if the
// direction is partitioned by then, the frame joins the held queue.
func (c *Conn) scheduleLate(d time.Duration, deliver func()) {
	c.fab.addPending(1)
	time.AfterFunc(d, func() {
		defer c.fab.addPending(-1)
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		if c.fab.Partitioned(c.dir) {
			c.held = append(c.held, heldFrame{deliver: deliver})
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		deliver()
	})
}

// flushHeld delivers every parked frame in order (called by Heal).
func (c *Conn) flushHeld() {
	c.mu.Lock()
	held := c.held
	c.held = nil
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return
	}
	for _, h := range held {
		h.deliver()
	}
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// PostWrite implements rdma.Conn.
func (c *Conn) PostWrite(wrID uint64, rkey uint32, off uint64, data []byte, signaled bool) error {
	return c.post(ClassWrite, data, func(d []byte) error {
		return c.inner.PostWrite(wrID, rkey, off, d, signaled)
	})
}

// PostWriteImm implements rdma.Conn.
func (c *Conn) PostWriteImm(wrID uint64, rkey uint32, off uint64, data []byte, imm uint32, signaled bool) error {
	return c.post(ClassWrite, data, func(d []byte) error {
		return c.inner.PostWriteImm(wrID, rkey, off, d, imm, signaled)
	})
}

// PostRead implements rdma.Conn. Reads carry no outbound payload, so
// only delay, drop and reset apply.
func (c *Conn) PostRead(wrID uint64, rkey uint32, off uint64, dst []byte) error {
	return c.post(ClassRead, nil, func([]byte) error {
		return c.inner.PostRead(wrID, rkey, off, dst)
	})
}

// PostAtomicCAS implements rdma.Conn.
func (c *Conn) PostAtomicCAS(wrID uint64, rkey uint32, off uint64, compare, swap uint64) error {
	return c.post(ClassAtomic, nil, func([]byte) error {
		return c.inner.PostAtomicCAS(wrID, rkey, off, compare, swap)
	})
}

// PostAtomicFAA implements rdma.Conn.
func (c *Conn) PostAtomicFAA(wrID uint64, rkey uint32, off uint64, add uint64) error {
	return c.post(ClassAtomic, nil, func([]byte) error {
		return c.inner.PostAtomicFAA(wrID, rkey, off, add)
	})
}

// PostSend implements rdma.Conn.
func (c *Conn) PostSend(wrID uint64, data []byte, signaled, inline bool) error {
	return c.post(ClassSend, data, func(d []byte) error {
		return c.inner.PostSend(wrID, d, signaled, inline)
	})
}

// PostRecv implements rdma.Conn (pass-through; inbound faults are the
// peer wrapper's job).
func (c *Conn) PostRecv(wrID uint64, buf []byte) error { return c.inner.PostRecv(wrID, buf) }

// PollSend implements rdma.Conn (pass-through).
func (c *Conn) PollSend(max int) []rdma.Completion { return c.inner.PollSend(max) }

// PollRecv implements rdma.Conn (pass-through).
func (c *Conn) PollRecv(max int) []rdma.Completion { return c.inner.PollRecv(max) }

// PostBounded implements rdma.Conn (pass-through: a fault is drawn and
// scheduled in memory, never waited for).
func (c *Conn) PostBounded() bool { return c.inner.PostBounded() }

// SetError implements rdma.Conn (pass-through).
func (c *Conn) SetError() { c.inner.SetError() }

// Failed implements rdma.Conn (pass-through).
func (c *Conn) Failed() bool { return c.inner.Failed() }

// Close implements rdma.Conn: parked and late frames die with the conn.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.held = nil
	c.mu.Unlock()
	return c.inner.Close()
}
