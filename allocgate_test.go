package precursor_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"precursor"
	"precursor/internal/cluster"
)

// TestPoolOpPathAllocBudget is TestOpPathAllocBudget's root-package
// sibling (internal/core cannot import Pool): the whole process's malloc
// count per get and per overwrite-put through a Pool over one in-process
// client, steady state, Workers: 1. The pool's borrow → call → finish
// adds nothing to what the connection's op costs (get: the value handed
// back + the one-time MAC key schedule; put: that schedule + the stored
// entry + the key string), so the budgets are the core gate's base-mode
// ones — and so are those of a one-shard ClusterClient over that pool: the
// single-replica route adds a breaker check and a latency sample, no
// allocation. The last row is the replicated route (R=2, two such pools):
// a quorum write's goroutines, channels and closures cost what they cost
// at the parent commit and not one allocation more — the benchmark's
// replicated_durable workload resolves its ≈78 allocs/op only to ±1, so
// this row is where a variable captured by reference shows. Run without
// -race (PRECURSOR_ALLOC_GATE pattern, `make allocgate`).
func TestPoolOpPathAllocBudget(t *testing.T) {
	if os.Getenv("PRECURSOR_ALLOC_GATE") == "" {
		t.Skip("set PRECURSOR_ALLOC_GATE=1 to enforce the pool op-path allocation budget")
	}
	platform, err := precursor.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	fabric := precursor.NewFabric()
	// newPool is one server, one in-process client to it, and a pool of
	// that client.
	newPool := func(name string) *precursor.Pool {
		dev, err := fabric.NewDevice(name + "-server")
		if err != nil {
			t.Fatal(err)
		}
		server, err := precursor.NewServer(dev, precursor.ServerConfig{
			Platform: platform, Workers: 1, PollInterval: 50 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(server.Close)
		cdev, err := fabric.NewDevice(name + "-client")
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
		pool, err := precursor.NewPoolFromClients([]*precursor.Client{client})
		if err != nil {
			t.Fatal(err)
		}
		return pool
	}
	pool := newPool("single")
	// Closing a cluster client closes its pools, which close their clients.
	cc, err := cluster.New([]cluster.Shard{{Name: "shard-0", Backend: pool}}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	r2, err := cluster.NewReplicated([]cluster.ReplicaGroup{{Name: "group-0", Replicas: []cluster.Shard{
		{Name: "group-0/r0", Backend: newPool("r0")}, {Name: "group-0/r1", Backend: newPool("r1")},
	}}}, cluster.Options{DisableAutoRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r2.Close() })

	const (
		keys   = 64
		warm   = 2000
		rounds = 20000
	)
	value := make([]byte, 32)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("user%012d", i)
	}
	measure := func(what string, budget float64, op func(int)) {
		for i := 0; i < warm; i++ {
			op(i)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			op(i)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / rounds
		t.Logf("%-14s %.2f allocs/op, %.0f B/op (budget %.1f)", what, got,
			float64(after.TotalAlloc-before.TotalAlloc)/rounds, budget)
		if got > budget {
			t.Errorf("%s: %.2f allocs/op exceeds the budget of %.1f", what, got, budget)
		}
	}
	for _, kv := range []struct {
		name           string
		get            func(string) ([]byte, error)
		put            func(string, []byte) error
		getMax, putMax float64
	}{
		{"pool", pool.Get, pool.Put, 2.5, 4.5},     // 2.13, 3.13 at this commit and its parent
		{"cluster", cc.Get, cc.Put, 2.5, 4.5},      // 2.13, 3.13
		{"cluster-r2", r2.Get, r2.Put, 5.5, 20.75}, // 5.13, 20.25: headroom under one allocation
	} {
		get := func(i int) {
			if _, err := kv.get(names[i%keys]); err != nil {
				t.Fatal(err)
			}
		}
		put := func(i int) {
			if err := kv.put(names[i%keys], value); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < keys; i++ {
			put(i)
		}
		measure(kv.name+" get", kv.getMax, get)
		measure(kv.name+" put", kv.putMax, put)
	}
}
