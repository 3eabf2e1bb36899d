package precursor_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"precursor"
)

// TestFacadeInProcess exercises the public API end to end over the
// in-process fabric, exactly as the package docs' quickstart shows.
func TestFacadeInProcess(t *testing.T) {
	platform, err := precursor.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	fabric := precursor.NewFabric()
	dev, err := fabric.NewDevice("server")
	if err != nil {
		t.Fatal(err)
	}
	server, err := precursor.NewServer(dev, precursor.ServerConfig{
		Platform: platform, Workers: 2, PollInterval: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	cdev, err := fabric.NewDevice("client")
	if err != nil {
		t.Fatal(err)
	}
	cq, sq := fabric.ConnectRC(cdev, dev)
	go func() { _, _ = server.HandleConnection(sq) }()

	client, err := precursor.Connect(precursor.ClientConfig{
		Conn: cq, Device: cdev,
		PlatformKey: platform.AttestationPublicKey(),
		Measurement: server.Measurement(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.Put("greeting", []byte("hello enclave")); err != nil {
		t.Fatal(err)
	}
	v, err := client.Get("greeting")
	if err != nil || string(v) != "hello enclave" {
		t.Fatalf("Get: %q %v", v, err)
	}
	if _, err := client.Get("missing"); !errors.Is(err, precursor.ErrNotFound) {
		t.Errorf("got %v", err)
	}
}

// TestServeAndDial exercises the one-call TCP deployment path.
func TestServeAndDial(t *testing.T) {
	platform, err := precursor.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := precursor.Serve("127.0.0.1:0", precursor.ServerConfig{
		Platform: platform, Workers: 2, PollInterval: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	client, err := precursor.Dial(svc.Addr(), precursor.DialConfig{
		PlatformKey: platform.AttestationPublicKey(),
		Measurement: svc.Server.Measurement(),
		Timeout:     10 * time.Second,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	value := bytes.Repeat([]byte{1, 2, 3}, 100)
	if err := client.Put("k", value); err != nil {
		t.Fatal(err)
	}
	got, err := client.Get("k")
	if err != nil || !bytes.Equal(got, value) {
		t.Fatalf("Get: %v", err)
	}

	// A second client sees the same data.
	client2, err := precursor.Dial(svc.Addr(), precursor.DialConfig{
		PlatformKey: platform.AttestationPublicKey(),
		Measurement: svc.Server.Measurement(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	got, err = client2.Get("k")
	if err != nil || !bytes.Equal(got, value) {
		t.Fatalf("client2 Get: %v", err)
	}
	if st := svc.Server.Stats(); st.Clients != 2 {
		t.Errorf("clients = %d", st.Clients)
	}
}

// TestServeInlineSmallValues: a server in the §5.2 inline mode announces
// it, so a Dialed client, which has no setting of its own, stores a small
// value inside the enclave over TCP and a larger one in the untrusted pool.
func TestServeInlineSmallValues(t *testing.T) {
	platform, err := precursor.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := precursor.Serve("127.0.0.1:0", precursor.ServerConfig{
		Platform: platform, Workers: 1, PollInterval: 50 * time.Microsecond,
		InlineSmallValues: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	client, err := precursor.Dial(svc.Addr(), precursor.DialConfig{
		PlatformKey: platform.AttestationPublicKey(),
		Measurement: svc.Server.Measurement(),
		Timeout:     10 * time.Second,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	small, large := []byte("below the bound"), bytes.Repeat([]byte{7}, 200) // either side of the 56 B bound
	if err := client.Put("small", small); err != nil {
		t.Fatal(err)
	}
	if st := svc.Server.Stats(); st.Entries != 1 || st.PoolBytesRequested != 0 {
		t.Errorf("after the small put: %d entries, %d pool bytes; want one entry and the value in the enclave",
			st.Entries, st.PoolBytesRequested)
	}
	if err := client.Put("large", large); err != nil {
		t.Fatal(err)
	}
	if st := svc.Server.Stats(); st.PoolBytesRequested < int64(len(large)) {
		t.Errorf("after the large put: %d pool bytes, want the value in the pool", st.PoolBytesRequested)
	}
	for key, want := range map[string][]byte{"small": small, "large": large} {
		if got, err := client.Get(key); err != nil || !bytes.Equal(got, want) {
			t.Errorf("Get(%s) = %q, %v", key, got, err)
		}
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := precursor.Dial("127.0.0.1:1", precursor.DialConfig{}); err == nil {
		t.Error("nil platform key accepted")
	}
}
