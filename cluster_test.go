package precursor_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"precursor"
)

func newTestCluster(t *testing.T, shards int) (*precursor.ReplicatedClusterService, *precursor.ClusterClient) {
	t.Helper()
	// One worker per shard and a gentle poll interval: the test may run
	// on a single-core machine, where N shards' trusted threads
	// busy-spinning at 1µs would starve each other.
	cs, err := precursor.ServeReplicatedCluster(shards, 1, precursor.ServerConfig{
		Workers: 1, PollInterval: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.Close)
	cc, err := precursor.DialReplicatedCluster(cs.GroupSpecs(), precursor.ClusterConfig{
		ConnsPerShard: 2,
		Timeout:       5 * time.Second,
		RetryBackoff:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	return cs, cc
}

// TestClusterRoundTrip is the subsystem's acceptance test: a 4-shard
// cluster round-trips 1000 keys with balanced placement, survives a shard
// dying (the others keep serving; the dead shard's errors are typed and
// fast), and recovers nothing silently.
func TestClusterRoundTrip(t *testing.T) {
	const shards, keys = 4, 1000
	cs, cc := newTestCluster(t, shards)

	key := func(i int) string { return fmt.Sprintf("user%06d", i) }
	for i := 0; i < keys; i++ {
		if err := cc.Put(key(i), []byte("v-"+key(i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < keys; i++ {
		v, err := cc.Get(key(i))
		if err != nil || string(v) != "v-"+key(i) {
			t.Fatalf("get %d: %q %v", i, v, err)
		}
	}

	// Placement balance: per-shard key counts within 2x of each other,
	// and consistent with what each shard server actually stored.
	st := cc.Stats()
	if st.Puts != keys || st.Gets != keys {
		t.Errorf("aggregate puts=%d gets=%d, want %d each", st.Puts, st.Gets, keys)
	}
	entriesByAddr := map[string]int{}
	for _, group := range cs.Groups {
		entriesByAddr[group[0].Addr()] = group[0].Server.Stats().Entries
	}
	lo, hi := uint64(1<<62), uint64(0)
	for _, ss := range st.Shards {
		if ss.Puts < lo {
			lo = ss.Puts
		}
		if ss.Puts > hi {
			hi = ss.Puts
		}
		if entries := entriesByAddr[ss.Name]; uint64(entries) != ss.Puts {
			t.Errorf("shard %s: client routed %d puts but server stores %d entries",
				ss.Name, ss.Puts, entries)
		}
	}
	if hi > 2*lo {
		t.Errorf("shard imbalance >2x: min=%d max=%d (%+v)", lo, hi, st.Shards)
	}

	// Kill one shard. Its keys error; everyone else keeps serving.
	deadAddr := cs.Groups[1][0].Addr()
	cs.Groups[1][0].Close()

	var deadKey, liveKey string
	for i := 0; i < keys && (deadKey == "" || liveKey == ""); i++ {
		if cc.ShardFor(key(i)) == deadAddr {
			deadKey = key(i)
		} else {
			liveKey = key(i)
		}
	}

	// First ops pay the detection cost, then the breaker opens and the
	// dead shard fails fast with the typed sentinel.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := cc.Get(deadKey)
		if err == nil {
			t.Fatal("get from a closed shard succeeded")
		}
		var se *precursor.ShardError
		if !errors.As(err, &se) {
			t.Fatalf("dead-shard error not a ShardError: %v", err)
		}
		if se.Shard != deadAddr {
			t.Fatalf("error attributed to %s, want %s", se.Shard, deadAddr)
		}
		if errors.Is(err, precursor.ErrShardDown) {
			break // breaker open
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened for the dead shard")
		}
	}
	start := time.Now()
	if _, err := cc.Get(deadKey); !errors.Is(err, precursor.ErrShardDown) {
		t.Fatalf("breaker-open error = %v", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("dead-shard error took %v, want fail-fast", d)
	}
	if deg := cc.Degraded(); len(deg) != 1 || deg[0] != deadAddr {
		t.Errorf("Degraded() = %v, want [%s]", deg, deadAddr)
	}

	// Healthy shards are unaffected: reads and writes still land.
	if v, err := cc.Get(liveKey); err != nil || string(v) != "v-"+liveKey {
		t.Fatalf("healthy shard read after shard death: %q %v", v, err)
	}
	if err := cc.Put("post-failure-"+liveKey, []byte("x")); err != nil {
		if cc.ShardFor("post-failure-"+liveKey) != deadAddr {
			t.Fatalf("healthy shard write after shard death: %v", err)
		}
	}
}

// TestClusterDialFailure: a bad shard spec fails the whole dial (no
// partially-connected client) and closes what was already dialed.
func TestClusterDialFailure(t *testing.T) {
	cs, err := precursor.ServeReplicatedCluster(2, 1, precursor.ServerConfig{
		Workers: 1, PollInterval: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	specs := cs.GroupSpecs()
	specs[1][0].Addr = "127.0.0.1:1" // nothing listens there
	if _, err := precursor.DialReplicatedCluster(specs, precursor.ClusterConfig{}); err == nil {
		t.Fatal("DialReplicatedCluster succeeded with an unreachable shard")
	}
	if _, err := precursor.DialCluster(nil, precursor.ClusterConfig{}); !errors.Is(err, precursor.ErrNoShards) {
		t.Errorf("DialCluster(nil) = %v", err)
	}
}

// TestClusterAttestsEachShard: a shard whose measurement does not match
// its spec is rejected at dial — per-shard attestation, not
// cluster-wide trust.
func TestClusterAttestsEachShard(t *testing.T) {
	cs, err := precursor.ServeReplicatedCluster(2, 1, precursor.ServerConfig{
		Workers: 1, PollInterval: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	specs := cs.GroupSpecs()
	specs[1][0].Measurement[0] ^= 0xFF // wrong enclave build for shard 1
	if _, err := precursor.DialReplicatedCluster(specs, precursor.ClusterConfig{}); err == nil {
		t.Fatal("DialReplicatedCluster accepted a shard with a wrong measurement")
	}
}
