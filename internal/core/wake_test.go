package core

import (
	"fmt"
	"net"
	"testing"
	"time"

	"precursor/internal/rdma"
	"precursor/internal/ringbuf"
)

// Waking on the write (DESIGN.md §5, "The TCP half of the waiting path"):
// whether a region is armed follows from the transport's PostBounded alone,
// and a trusted thread parks only while every session it polls is armed.
// Everything here is read off counters, not the clock.

// connectTCP attaches a client to tc's server over the TCP fabric.
func (tc *testCluster) connectTCP() *Client {
	tc.t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tc.t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			_, err = tc.server.HandleConnection(rdma.NewTCPQP(tc.srvDev, conn))
		}
		done <- err
	}()
	tc.nDev++
	dev := rdma.NewDevice(fmt.Sprintf("tcp-client-%d", tc.nDev))
	conn, err := rdma.DialTCP(dev, ln.Addr().String())
	if err != nil {
		tc.t.Fatal(err)
	}
	client, err := Connect(ClientConfig{Conn: conn, Device: dev,
		PlatformKey: tc.platform.AttestationPublicKey(), Measurement: tc.server.Measurement(),
		Timeout: 10 * time.Second})
	if err != nil {
		tc.t.Fatalf("Connect: %v", err)
	}
	if err := <-done; err != nil {
		tc.t.Fatalf("HandleConnection: %v", err)
	}
	tc.t.Cleanup(func() { _ = client.Close() })
	return client
}

// drive runs n put/get pairs on c.
func drive(t *testing.T, c *Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i%8)
		if err := c.Put(key, []byte(key)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
}

// parks sums a ladder's parks of both kinds.
func parks(woken, capped uint64) uint64 { return woken + capped }

// TestInProcessNeverArms: an in-process server and client arm no region,
// never park and send no fabric frame, through traffic and an idle spell
// long enough for the trusted thread to reach its sleeps.
func TestInProcessNeverArms(t *testing.T) {
	tc := newCluster(t, ServerConfig{Workers: 1})
	c := tc.connect()
	drive(t, c, 200)
	time.Sleep(3 * ringbuf.PollerYield)
	drive(t, c, 10)
	if sess := sessionOf(tc.server, c); sess.reqRing.Armed() || c.respRing.Armed() || c.reqCredit.Armed() {
		t.Fatal("an in-process session armed a region")
	}
	st, cs := tc.server.Stats(), c.StatsStruct()
	if st.PollSleeps == 0 {
		t.Error("the trusted thread never reached its sleeps: the idle spell tested nothing")
	}
	if n := parks(st.PollParksWoken, st.PollParksCapped) + parks(cs.PollParksWoken, cs.PollParksCapped); n != 0 {
		t.Errorf("%d parks in process", n)
	}
	if st.Fabric != (rdma.FabricStats{}) || cs.Fabric != (rdma.FabricStats{}) {
		t.Errorf("fabric counters moved in process: server %+v, client %+v", st.Fabric, cs.Fabric)
	}
}

// TestWorkerParksOnlyWhenEverySessionIsArmed: a trusted thread whose one
// session is on the TCP fabric parks on its writes, and so does that
// client; acks run at one per ackEvery frames or fewer and a socket read
// brings in a frame or more. Once an in-process session shares the thread,
// the thread keeps its PollInterval sleeps and parks no more, although the
// TCP session's ring stays armed.
func TestWorkerParksOnlyWhenEverySessionIsArmed(t *testing.T) {
	tc := newCluster(t, ServerConfig{Workers: 1})
	tcp := tc.connectTCP()
	const ops = 200
	drive(t, tcp, ops)
	st, cs := tc.server.Stats(), tcp.StatsStruct()
	t.Logf("%d ops: server %d parks woken, %d capped; client %d woken, %d capped", 2*ops, st.PollParksWoken, st.PollParksCapped, cs.PollParksWoken, cs.PollParksCapped)
	if st.PollParksWoken == 0 || cs.PollParksWoken == 0 {
		t.Errorf("no park woken by a write: server %d, client %d", st.PollParksWoken, cs.PollParksWoken)
	}
	for side, f := range map[string]rdma.FabricStats{"server": st.Fabric, "client": cs.Fabric} {
		t.Logf("%s: %d frames written, %d read in %d reads, %d acks sent", side, f.FramesWritten, f.FramesRead, f.Reads, f.AcksSent)
		if f.AcksSent*8 > f.FramesRead {
			t.Errorf("%s acked %d of the %d frames it read", side, f.AcksSent, f.FramesRead)
		}
		if f.Reads > f.FramesRead+1 {
			t.Errorf("%s needed %d socket reads for %d frames", side, f.Reads, f.FramesRead)
		}
	}

	mem := tc.connect()
	drive(t, mem, 10)
	drive(t, tcp, 10)
	time.Sleep(5 * ringbuf.ParkCap) // a park begun before mem joined has ended
	before := tc.server.Stats()
	drive(t, mem, 50)
	drive(t, tcp, 50)
	time.Sleep(3 * ringbuf.PollerYield)
	after := tc.server.Stats()
	if n := parks(after.PollParksWoken, after.PollParksCapped) - parks(before.PollParksWoken, before.PollParksCapped); n != 0 {
		t.Errorf("%d parks by a thread with an in-process session", n)
	}
	if after.PollSleeps == before.PollSleeps {
		t.Error("a thread with a TCP and an in-process session took no PollInterval sleep")
	}
	if !sessionOf(tc.server, tcp).reqRing.Armed() || sessionOf(tc.server, mem).reqRing.Armed() {
		t.Error("arming did not follow the transport: want the TCP ring armed and the in-process one not")
	}
}
