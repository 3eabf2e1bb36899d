package ringbuf

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"precursor/internal/rdma"
)

// The park (Ladder.Wake): a waiter on memory an agent goroutine writes
// parks on the region's wake channel and is woken by the write itself.

// TestParkedPollerWakesOnAgentWrite: with one P — where a timer sleep is
// late by the netpoller's resolution once the P goes idle — a poller parked
// with a 10 ms cap over the TCP fabric sees a write within 200 µs of its
// post: the agent that applied it woke the poller, not the cap. The median
// of 21 writes is bounded, so one that meets a descheduled host does not
// decide.
func TestParkedPollerWakesOnAgentWrite(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wdev, rdev := rdma.NewDevice("writer"), rdma.NewDevice("reader")
	ln, err := rdma.ListenTCP(rdev, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *rdma.TCPQP, 1)
	go func() {
		q, _ := ln.Accept()
		accepted <- q
	}()
	wq, err := rdma.DialTCP(wdev, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wq.Close()
	rq := <-accepted
	if rq == nil {
		t.Fatal("accept failed")
	}
	defer rq.Close()
	region := rdev.RegisterMemory(64, rdma.PermRemoteWrite)
	wake := make(chan struct{}, 1)
	region.Arm(wake)

	const capped, writes = 10 * time.Millisecond, 21
	wait := Ladder{Sleep: capped, Wake: wake}
	// turn hands the writer the poller's park count before its wait.
	turn, sent := make(chan uint64), make(chan time.Time, 1)
	go func() {
		for before := range turn {
			// Post once the poller has parked and the P has gone idle.
			for _, _, sleeps := wait.Steps(); sleeps == before; _, _, sleeps = wait.Steps() {
				time.Sleep(100 * time.Microsecond)
			}
			time.Sleep(2 * time.Millisecond)
			at := time.Now()
			if err := wq.PostWrite(1, region.RKey(), 0, []byte("wake"), false); err != nil {
				t.Error(err)
			}
			sent <- at
		}
	}()
	defer close(turn)

	lat := make([]time.Duration, 0, writes)
	for i := 0; i < writes; i++ {
		bell := region.Doorbell()
		_, _, sleeps := wait.Steps()
		turn <- sleeps
		for region.Doorbell() == bell {
			wait.Wait(time.Time{})
		}
		woke := time.Now()
		wait.Done()
		lat = append(lat, woke.Sub(<-sent))
	}
	slices.Sort(lat)
	woken, _ := wait.Parks()
	t.Logf("post to wake: min %v median %v max %v; %d parks woken", lat[0], lat[writes/2], lat[writes-1], woken)
	if med := lat[writes/2]; med > 200*time.Microsecond {
		t.Errorf("median post-to-wake %v, want under 200µs (the cap is %v)", med, capped)
	}
	if woken < writes/2 {
		t.Errorf("%d of %d writes woke the poller", woken, writes)
	}
}

// TestFrameBetweenBellLoadAndParkIsNotLost: a frame that lands after the
// poll found the ring empty and before the poller parks ends the park at
// once, on the token it left — as do two frames, whose second token found
// the channel full. A park with nothing landed runs to its cap.
func TestFrameBetweenBellLoadAndParkIsNotLost(t *testing.T) {
	tr := newTestRing(t, 8, 64, 1)
	wake := make(chan struct{}, 1)
	tr.ringMR.Arm(wake)
	const capped = 2 * time.Second
	wait := Ladder{Sleep: capped, Wake: wake}
	for i := 0; i < 50; i++ {
		if _, ready, err := tr.reader.Poll(); ready || err != nil {
			t.Fatalf("empty ring: ready=%v err=%v", ready, err)
		}
		frames := 1 + i%2
		for f := 0; f < frames; f++ {
			if ok, err := tr.writer.TryWrite([]byte("between")); !ok || err != nil {
				t.Fatalf("write: ok=%v err=%v", ok, err)
			}
		}
		start := time.Now()
		wait.Wait(time.Time{})
		if took := time.Since(start); took >= capped/2 {
			t.Fatalf("round %d: the park ran %v: the frame was slept through", i, took)
		}
		for f := 0; f < frames; f++ {
			if msg, ready, err := tr.reader.Poll(); !ready || err != nil || string(msg) != "between" {
				t.Fatalf("round %d: poll = %q ready=%v err=%v", i, msg, ready, err)
			}
		}
		wait.Done()
	}
	if woken, capped := wait.Parks(); woken != 50 || capped != 0 {
		t.Errorf("%d parks woken and %d capped, want 50 and 0", woken, capped)
	}

	idle := Ladder{Sleep: time.Millisecond, Wake: make(chan struct{}, 1)}
	idle.Wait(time.Time{})
	if woken, capped := idle.Parks(); woken != 0 || capped != 1 {
		t.Errorf("a park with nothing landed: %d woken, %d capped, want 0 and 1", woken, capped)
	}
}
