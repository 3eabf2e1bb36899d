package faultfab

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"precursor/internal/rdma"
)

// sinkConn records delivered frames in order; it implements just enough
// of rdma.Conn for the fabric to wrap. The fabric delivers late frames
// from timer goroutines, several at once, so the record is locked; tests
// read it through gotWrites, gotSends, wasErrored and wasClosed.
type sinkConn struct {
	mu      sync.Mutex
	writes  [][]byte
	sends   [][]byte
	errored bool
	closed  bool
}

// gotWrites and gotSends return snapshots of the frames recorded so far.
func (s *sinkConn) gotWrites() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.writes...)
}

func (s *sinkConn) gotSends() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.sends...)
}

func (s *sinkConn) wasErrored() bool { s.mu.Lock(); defer s.mu.Unlock(); return s.errored }
func (s *sinkConn) wasClosed() bool  { s.mu.Lock(); defer s.mu.Unlock(); return s.closed }

var _ rdma.Conn = (*sinkConn)(nil)

func (s *sinkConn) PostWrite(wrID uint64, rkey uint32, off uint64, data []byte, signaled bool) error {
	s.mu.Lock()
	s.writes = append(s.writes, append([]byte(nil), data...))
	s.mu.Unlock()
	return nil
}
func (s *sinkConn) PostWriteImm(wrID uint64, rkey uint32, off uint64, data []byte, imm uint32, signaled bool) error {
	return s.PostWrite(wrID, rkey, off, data, signaled)
}
func (s *sinkConn) PostRead(wrID uint64, rkey uint32, off uint64, dst []byte) error { return nil }
func (s *sinkConn) PostAtomicCAS(wrID uint64, rkey uint32, off uint64, compare, swap uint64) error {
	return nil
}
func (s *sinkConn) PostAtomicFAA(wrID uint64, rkey uint32, off uint64, add uint64) error { return nil }
func (s *sinkConn) PostSend(wrID uint64, data []byte, signaled, inline bool) error {
	s.mu.Lock()
	s.sends = append(s.sends, append([]byte(nil), data...))
	s.mu.Unlock()
	return nil
}
func (s *sinkConn) PostRecv(wrID uint64, buf []byte) error { return nil }
func (s *sinkConn) PollSend(max int) []rdma.Completion     { return nil }
func (s *sinkConn) PollRecv(max int) []rdma.Completion     { return nil }
func (s *sinkConn) PostBounded() bool                      { return true }
func (s *sinkConn) SetError()                              { s.mu.Lock(); s.errored = true; s.mu.Unlock() }
func (s *sinkConn) Failed() bool                           { return s.wasErrored() || s.wasClosed() }
func (s *sinkConn) Close() error                           { s.mu.Lock(); s.closed = true; s.mu.Unlock(); return nil }

func noisyConfig(seed uint64) Config {
	probs := ClassProbs{Drop: 0.15, Dup: 0.1, Corrupt: 0.1, Delay: 0.15, MaxDelay: time.Millisecond}
	return Config{
		Seed: seed,
		C2S:  ClassMap{ClassWrite: probs, ClassSend: probs},
		S2C:  ClassMap{ClassWrite: probs, ClassSend: probs},
	}
}

// runSchedule pushes n frames through a fresh fabric and returns the
// recorded schedule.
func runSchedule(t *testing.T, seed uint64, n int) []Event {
	t.Helper()
	fab := New(noisyConfig(seed))
	conn := fab.Wrap(&sinkConn{}, C2S, "sched")
	payload := bytes.Repeat([]byte{0xEE}, 64)
	for i := 0; i < n; i++ {
		if err := conn.PostWrite(uint64(i), 1, 0, payload, false); err != nil {
			t.Fatalf("PostWrite: %v", err)
		}
	}
	if !fab.Quiesce(2 * time.Second) {
		t.Fatalf("fabric did not quiesce")
	}
	return fab.Schedule()
}

func TestScheduleDeterministic(t *testing.T) {
	a := runSchedule(t, 42, 400)
	b := runSchedule(t, 42, 400)
	if len(a) == 0 {
		t.Fatalf("no faults drawn at 50%% total fault rate over 400 frames")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedule lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, schedules diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := runSchedule(t, 43, 400)
	diverged := len(a) != len(c)
	for i := 0; !diverged && i < len(a); i++ {
		diverged = a[i] != c[i]
	}
	if !diverged {
		t.Fatalf("different seeds drew identical schedules")
	}
}

func TestFaultKindsFire(t *testing.T) {
	fab := New(noisyConfig(7))
	conn := fab.Wrap(&sinkConn{}, C2S, "kinds")
	payload := bytes.Repeat([]byte{0xAB}, 32)
	for i := 0; i < 2000; i++ {
		if err := conn.PostWrite(uint64(i), 1, 0, payload, false); err != nil {
			t.Fatalf("PostWrite: %v", err)
		}
	}
	if !fab.Quiesce(2 * time.Second) {
		t.Fatalf("fabric did not quiesce")
	}
	counts := fab.Counts()
	for _, kind := range []string{"drop", "dup", "corrupt", "delay"} {
		if counts[kind] == 0 {
			t.Errorf("fault kind %q never fired over 2000 frames (%s)", kind, fab.Summary())
		}
	}
	if counts["frames"] != 2000 {
		t.Errorf("frames = %d, want 2000", counts["frames"])
	}
	if fab.TotalFaults() == 0 {
		t.Errorf("TotalFaults() = 0")
	}
}

func TestDropRedeliversUnlessHardLoss(t *testing.T) {
	// Drop-only config: every frame is "lost"; soft drops must all be
	// redelivered, hard drops never.
	for _, hard := range []bool{false, true} {
		sink := &sinkConn{}
		fab := New(Config{
			Seed:     9,
			HardLoss: hard,
			C2S:      ClassMap{ClassWrite: {Drop: 1, MaxDelay: time.Millisecond}},
		})
		conn := fab.Wrap(sink, C2S, "drop")
		for i := 0; i < 20; i++ {
			if err := conn.PostWrite(uint64(i), 1, 0, []byte{byte(i)}, false); err != nil {
				t.Fatalf("PostWrite: %v", err)
			}
		}
		if !fab.Quiesce(2 * time.Second) {
			t.Fatalf("fabric did not quiesce")
		}
		want := 20
		if hard {
			want = 0
		}
		if len(sink.gotWrites()) != want {
			t.Errorf("hardLoss=%v: %d frames delivered, want %d", hard, len(sink.gotWrites()), want)
		}
	}
}

func TestDupDeliversTwice(t *testing.T) {
	sink := &sinkConn{}
	fab := New(Config{Seed: 11, C2S: ClassMap{ClassWrite: {Dup: 1, MaxDelay: time.Millisecond}}})
	conn := fab.Wrap(sink, C2S, "dup")
	for i := 0; i < 10; i++ {
		if err := conn.PostWrite(uint64(i), 1, 0, []byte{byte(i)}, false); err != nil {
			t.Fatalf("PostWrite: %v", err)
		}
	}
	if !fab.Quiesce(2 * time.Second) {
		t.Fatalf("fabric did not quiesce")
	}
	if len(sink.gotWrites()) != 20 {
		t.Fatalf("%d frames delivered, want 20 (each duplicated)", len(sink.gotWrites()))
	}
}

func TestCorruptFlipsBits(t *testing.T) {
	sink := &sinkConn{}
	fab := New(Config{Seed: 13, C2S: ClassMap{ClassWrite: {Corrupt: 1}}})
	conn := fab.Wrap(sink, C2S, "corrupt")
	orig := bytes.Repeat([]byte{0x55}, 48)
	if err := conn.PostWrite(1, 1, 0, orig, false); err != nil {
		t.Fatalf("PostWrite: %v", err)
	}
	if len(sink.gotWrites()) != 1 {
		t.Fatalf("%d frames delivered, want 1", len(sink.gotWrites()))
	}
	if bytes.Equal(sink.gotWrites()[0], orig) {
		t.Fatalf("corrupted frame identical to original")
	}
	if !bytes.Equal(orig, bytes.Repeat([]byte{0x55}, 48)) {
		t.Fatalf("corruption mutated the caller's buffer")
	}
}

func TestResetErrorsConn(t *testing.T) {
	sink := &sinkConn{}
	fab := New(Config{Seed: 17, C2S: ClassMap{ClassWrite: {Reset: 1}}})
	conn := fab.Wrap(sink, C2S, "reset")
	if err := conn.PostWrite(1, 1, 0, []byte{1}, false); err != nil {
		t.Fatalf("PostWrite: %v", err)
	}
	if !sink.wasErrored() {
		t.Fatalf("reset fault did not error the wrapped conn")
	}
}

func TestPartitionHoldsThenHealsInOrder(t *testing.T) {
	sink := &sinkConn{}
	fab := New(Config{Seed: 19}) // no probabilistic faults
	conn := fab.Wrap(sink, C2S, "part")

	fab.Partition(C2S)
	for i := 0; i < 8; i++ {
		if err := conn.PostWrite(uint64(i), 1, 0, []byte{byte(i)}, false); err != nil {
			t.Fatalf("PostWrite: %v", err)
		}
	}
	if len(sink.gotWrites()) != 0 {
		t.Fatalf("partitioned direction delivered %d frames", len(sink.gotWrites()))
	}
	if !fab.Partitioned(C2S) || fab.Partitioned(S2C) {
		t.Fatalf("partition state wrong: c2s=%v s2c=%v", fab.Partitioned(C2S), fab.Partitioned(S2C))
	}

	// The opposite direction keeps flowing.
	sink2 := &sinkConn{}
	conn2 := fab.Wrap(sink2, S2C, "part-s2c")
	if err := conn2.PostWrite(1, 1, 0, []byte{0xFF}, false); err != nil {
		t.Fatalf("PostWrite s2c: %v", err)
	}
	if len(sink2.gotWrites()) != 1 {
		t.Fatalf("unpartitioned direction blocked")
	}

	fab.Heal(C2S)
	if len(sink.gotWrites()) != 8 {
		t.Fatalf("heal delivered %d frames, want 8", len(sink.gotWrites()))
	}
	for i, w := range sink.gotWrites() {
		if w[0] != byte(i) {
			t.Fatalf("held frames delivered out of order: frame %d carries %d", i, w[0])
		}
	}
}

func TestPerClassAndDirectionConfig(t *testing.T) {
	// Faults configured only for C2S sends: C2S writes and all S2C
	// traffic must pass untouched.
	fab := New(Config{Seed: 23, C2S: ClassMap{ClassSend: {Drop: 1}}, S2C: nil})
	sinkA, sinkB := &sinkConn{}, &sinkConn{}
	c2s := fab.Wrap(sinkA, C2S, "a")
	s2c := fab.Wrap(sinkB, S2C, "b")
	for i := 0; i < 50; i++ {
		if err := c2s.PostWrite(uint64(i), 1, 0, []byte{1}, false); err != nil {
			t.Fatalf("PostWrite: %v", err)
		}
		if err := c2s.PostSend(uint64(i), []byte{2}, false, false); err != nil {
			t.Fatalf("PostSend: %v", err)
		}
		if err := s2c.PostSend(uint64(i), []byte{3}, false, false); err != nil {
			t.Fatalf("PostSend s2c: %v", err)
		}
	}
	fab.Quiesce(2 * time.Second)
	if len(sinkA.gotWrites()) != 50 {
		t.Errorf("unconfigured class perturbed: %d writes delivered, want 50", len(sinkA.gotWrites()))
	}
	if len(sinkA.gotSends()) != 50 { // soft drop: late, but all redelivered
		t.Errorf("dropped sends not redelivered: %d, want 50", len(sinkA.gotSends()))
	}
	if len(sinkB.gotSends()) != 50 {
		t.Errorf("unconfigured direction perturbed: %d sends delivered, want 50", len(sinkB.gotSends()))
	}
}

func TestClosedConnRejectsAndDropsHeld(t *testing.T) {
	sink := &sinkConn{}
	fab := New(Config{Seed: 29})
	conn := fab.Wrap(sink, C2S, "closed")
	fab.Partition(C2S)
	if err := conn.PostWrite(1, 1, 0, []byte{1}, false); err != nil {
		t.Fatalf("PostWrite: %v", err)
	}
	if err := conn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !sink.wasClosed() {
		t.Fatalf("Close did not propagate")
	}
	if err := conn.PostWrite(2, 1, 0, []byte{2}, false); err != rdma.ErrQPClosed {
		t.Fatalf("post after close: %v, want ErrQPClosed", err)
	}
	fab.Heal(C2S)
	if len(sink.gotWrites()) != 0 {
		t.Fatalf("held frames of a closed conn were delivered")
	}
}

func TestSummaryIncludesSeed(t *testing.T) {
	fab := New(Config{Seed: 31337})
	want := fmt.Sprintf("seed=%d", uint64(31337))
	if got := fab.Summary(); len(got) < len(want) || got[:len(want)] != want {
		t.Fatalf("Summary() = %q, want %q prefix", got, want)
	}
}
