package serverenc

import (
	"errors"
	"testing"
	"time"

	"precursor/internal/wire"
)

// TestReplayRejected mirrors Precursor's replay protection in the
// baseline: a re-sent frame with a stale oid is refused.
func TestReplayRejected(t *testing.T) {
	tc := newCluster(t)
	c := tc.connect()
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Hand-craft a request reusing the already-consumed oid.
	c.mu.Lock()
	ctl := wire.RequestControl{Op: wire.OpGet, Oid: c.oid, Key: []byte("k")}
	pt, err := ctl.Encode()
	if err != nil {
		c.mu.Unlock()
		t.Fatal(err)
	}
	sealed, err := c.aead.Seal(pt, c.ad[:])
	if err != nil {
		c.mu.Unlock()
		t.Fatal(err)
	}
	frame := (&request{op: wire.OpGet, clientID: c.id, sealedControl: sealed}).encode(nil)
	err = c.reqWriter.WriteDeadline(frame, time.Now().Add(time.Second))
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tc.server.Stats().Replays == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replay not detected")
		}
		time.Sleep(time.Millisecond)
	}
	// Session still healthy.
	if got, err := c.Get("k"); err != nil || string(got) != "v" {
		t.Errorf("post-replay get: %q %v", got, err)
	}
}

func TestNotFoundAndDelete(t *testing.T) {
	tc := newCluster(t)
	c := tc.connect()
	if _, err := c.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("get missing: %v", err)
	}
	if err := c.Delete("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("delete missing: %v", err)
	}
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if st := tc.server.Stats(); st.Entries != 0 || st.Deletes != 2 {
		t.Errorf("stats: %+v", st)
	}
}

func TestOversizeRejected(t *testing.T) {
	tc := newCluster(t)
	c := tc.connect()
	if err := c.Put("", []byte("v")); !errors.Is(err, ErrTooLarge) {
		t.Errorf("empty key: %v", err)
	}
	if err := c.Put("k", make([]byte, 64*1024)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize value: %v", err)
	}
}

func TestClosedClient(t *testing.T) {
	tc := newCluster(t)
	c := tc.connect()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", []byte("v")); !errors.Is(err, ErrClosed) {
		t.Errorf("put after close: %v", err)
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrClosed) {
		t.Errorf("get after close: %v", err)
	}
	if err := c.Delete("k"); !errors.Is(err, ErrClosed) {
		t.Errorf("delete after close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestEnclaveEcallsConstantOnHotPath: like Precursor, the baseline uses
// ring polling, so ecalls must not scale with request count — the
// variant differs only in *payload* handling.
func TestEnclaveEcallsConstantOnHotPath(t *testing.T) {
	tc := newCluster(t)
	c := tc.connect()
	base := tc.server.Stats().Enclave.Ecalls
	for i := 0; i < 100; i++ {
		if err := c.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := tc.server.Stats().Enclave.Ecalls; got != base {
		t.Errorf("hot path issued %d ecalls", got-base)
	}
}
