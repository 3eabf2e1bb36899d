package precursor_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"precursor"
)

// bigWrites counts the writes over 8 KiB posted through a connection — in
// repairGroup's workload only repair's snapshot chunks are that large —
// and, while spoil is set, flips a byte in the middle of each.
type bigWrites struct {
	precursor.Conn
	n     *atomic.Int64
	spoil *atomic.Bool
}

func (c bigWrites) PostWrite(wrID uint64, rkey uint32, off uint64, data []byte, signaled bool) error {
	if len(data) > 8<<10 {
		c.n.Add(1)
		if c.spoil.Load() {
			data = bytes.Clone(data)
			data[len(data)/2] ^= 0x01
		}
	}
	return c.Conn.PostWrite(wrID, rkey, off, data, signaled)
}

// repairGroup serves one group of two replicas holding 200 values of
// 512 B (a sealed snapshot of about 110 KB), dialed through a bigWrites
// wrapper, then kills replica 1 and writes until its breaker trips. The
// returned restart brings replica 1 back empty, to be full-synced.
func repairGroup(t *testing.T, big *atomic.Int64, spoil *atomic.Bool) (*precursor.ReplicatedClusterService, *precursor.ClusterClient, func() *precursor.Service) {
	t.Helper()
	cs, err := precursor.ServeReplicatedCluster(1, 2, precursor.ServerConfig{
		Workers: 1, PollInterval: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.Close)
	cc, err := precursor.DialReplicatedCluster(cs.GroupSpecs(), precursor.ClusterConfig{
		Timeout:        time.Second,
		RetryBackoff:   20 * time.Millisecond,
		RepairInterval: 10 * time.Millisecond,
		WriteQuorum:    1,
		WrapConn:       func(c precursor.Conn) precursor.Conn { return bigWrites{c, big, spoil} },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	val := bytes.Repeat([]byte("v"), 512)
	for i := 0; i < 200; i++ {
		if err := cc.Put(fmt.Sprintf("k%03d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if n := big.Load(); n != 0 {
		t.Fatalf("the workload itself posted %d writes over 8 KiB", n)
	}
	// A replica that was down is full-synced when it returns.
	cs.Groups[0][1].Close()
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; cc.Healthy(); i++ {
		if time.Now().After(deadline) {
			t.Fatal("the dead replica never tripped")
		}
		_ = cc.Put(fmt.Sprintf("k%03d", i%200), val)
	}
	return cs, cc, func() *precursor.Service {
		svc, err := cs.RestartReplica(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
}

// awaitHealthy waits, bounded, for cc's restarted replica to rejoin.
func awaitHealthy(t *testing.T, cc *precursor.ClusterClient) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cc.Healthy() {
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica never rejoined: degraded=%v", cc.Degraded())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRepairTrafficUsesDialConfig: a repair session is dialed with the
// cluster's dial configuration, so ClusterConfig.WrapConn — fault injection,
// tracing, traffic accounting — sees its frames. A replica killed and
// restarted empty is full-synced; the snapshot chunks pushed into it are the
// only writes of many KiB the client posts, and the wrapper must see them.
func TestRepairTrafficUsesDialConfig(t *testing.T) {
	var big atomic.Int64
	_, cc, restart := repairGroup(t, &big, new(atomic.Bool))
	restart()
	awaitHealthy(t, cc)
	if st := cc.Stats(); st.Repairs < 1 || big.Load() == 0 {
		t.Fatalf("repairs=%d, writes over 8 KiB seen by WrapConn=%d: the full sync bypassed the dial configuration",
			st.Repairs, big.Load())
	}
}

// TestFailedFullSyncsLeaveNoSessions: each full sync opens a session on the
// donor and one on the target, and closes both when it ends, failed or not;
// the servers must then let them go. The pushed chunks are spoiled, so the
// restarted replica's full syncs fail one after another until the spoiling
// stops. Afterwards each server holds no more sessions than the cluster
// client's pools keep: a leak would leave one per failed attempt.
func TestFailedFullSyncsLeaveNoSessions(t *testing.T) {
	var big atomic.Int64
	var spoil atomic.Bool
	cs, cc, restart := repairGroup(t, &big, &spoil)
	donor := cs.Groups[0][0].Server
	pooled := donor.Stats().Clients
	spoil.Store(true)
	target := restart().Server
	deadline := time.Now().Add(30 * time.Second)
	for cc.Stats().RepairFailures < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d full syncs failed", cc.Stats().RepairFailures)
		}
		time.Sleep(5 * time.Millisecond)
	}
	spoil.Store(false)
	awaitHealthy(t, cc)
	// A closed session ends at its trusted thread's next idle sweep.
	for donor.Stats().Clients > pooled || target.Stats().Clients > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("after %d failed full syncs the donor holds %d sessions (pool: %d), the target %d (pool: 1)",
				cc.Stats().RepairFailures, donor.Stats().Clients, pooled, target.Stats().Clients)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// batchOps builds one op of kind per key, values[i] riding with keys[i]
// when given.
func batchOps(kind precursor.BatchOpKind, keys []string, values ...[]byte) []precursor.BatchOp {
	ops := make([]precursor.BatchOp, len(keys))
	for i, k := range keys {
		ops[i] = precursor.BatchOp{Kind: kind, Key: k}
		if i < len(values) {
			ops[i].Value = values[i]
		}
	}
	return ops
}

// replSeed makes the replication chaos workload reproducible: the same
// seed yields the same key/op sequence (go test -args -repl.seed=N).
var replSeed = flag.Int64("repl.seed", 1, "seed for the replication chaos workload")

// TestReplicatedClusterFailoverRepair is the replication subsystem's
// acceptance test. A 2-group × 3-replica cluster (W=2) runs a seeded
// workload while one replica of group 0 is killed mid-run:
//
//   - no acked put may be lost — after the dust settles every key reads
//     back as a value the client actually acked (or, for writes that
//     returned ErrUnconfirmed, one of the candidate values);
//   - the replicated keyspace never surfaces ErrShardDown — failover is
//     transparent while a quorum survives;
//   - the killed replica, restarted empty on the same address (a crash
//     reboot: same platform, lost state), rejoins via snapshot + delta
//     repair and then individually serves the group's data.
func TestReplicatedClusterFailoverRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("replication chaos test skipped in -short mode")
	}
	const groups, replicas, quorum = 2, 3, 2
	cs, err := precursor.ServeReplicatedCluster(groups, replicas, precursor.ServerConfig{
		Workers: 1, PollInterval: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.Close)
	specs := cs.GroupSpecs()
	cc, err := precursor.DialReplicatedCluster(specs, precursor.ClusterConfig{
		ConnsPerShard:  2,
		Timeout:        5 * time.Second,
		RetryBackoff:   50 * time.Millisecond,
		WriteQuorum:    quorum,
		RepairInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })

	// Seeded preload, so the kill has state to endanger.
	rng := rand.New(rand.NewSource(*replSeed))
	const keys = 120
	key := func(i int) string { return fmt.Sprintf("chaos%04d", i) }
	val := func(i, ver int) []byte { return []byte(fmt.Sprintf("v%d-%06d-%d", ver, rng.Int31(), i)) }
	// candidates[i] is the set of values key(i) may legally hold: the last
	// acked value, plus any later value whose write returned unconfirmed.
	candidates := make([][][]byte, keys)
	for i := 0; i < keys; i++ {
		v := val(i, 0)
		if err := cc.Put(key(i), v); err != nil {
			t.Fatalf("preload put %d: %v", i, err)
		}
		candidates[i] = [][]byte{v}
	}

	// Workload: 4 writers over disjoint key ranges (so each key has one
	// deterministic writer), with interleaved reads. One replica of group
	// 0 dies 100ms in.
	var (
		mu             sync.Mutex
		shardDownCount int
		writerErrs     []error
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := w
		wrng := rand.New(rand.NewSource(*replSeed + int64(w) + 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ver := 1; ; ver++ {
				select {
				case <-stop:
					return
				default:
				}
				i := w*(keys/4) + wrng.Intn(keys/4)
				v := []byte(fmt.Sprintf("v%d-%06d-%d", ver, wrng.Int31(), i))
				err := cc.Put(key(i), v)
				mu.Lock()
				switch {
				case err == nil, errors.Is(err, precursor.ErrUnconfirmed):
					// Acked (or ambiguously applied) values are all legal
					// final states: quorum writes return at W acks, so a
					// straggler replica may apply two back-to-back writes to
					// the same key out of order and legitimately settle a
					// small number of versions behind (the last-writer-wins
					// caveat PROTOCOL.md §10 documents). Keep a short window.
					candidates[i] = append(candidates[i], v)
					if len(candidates[i]) > 4 {
						candidates[i] = candidates[i][len(candidates[i])-4:]
					}
				default:
					writerErrs = append(writerErrs, fmt.Errorf("put %s: %w", key(i), err))
				}
				if errors.Is(err, precursor.ErrShardDown) {
					shardDownCount++
				}
				if _, gerr := cc.Get(key(i)); errors.Is(gerr, precursor.ErrShardDown) {
					shardDownCount++
				}
				mu.Unlock()
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	victim := cs.Groups[0][0]
	victimAddr := victim.Addr()
	victim.Close()
	time.Sleep(700 * time.Millisecond)
	close(stop)
	wg.Wait()

	if shardDownCount != 0 {
		t.Errorf("replicated keyspace surfaced ErrShardDown %d times", shardDownCount)
	}
	for _, werr := range writerErrs {
		t.Errorf("workload write failed hard: %v", werr)
	}

	// Durability with the replica still dead: every key must read back as
	// one of its legal candidates.
	matches := func(i int, got []byte) bool {
		for _, c := range candidates[i] {
			if bytes.Equal(got, c) {
				return true
			}
		}
		return false
	}
	for i := 0; i < keys; i++ {
		got, err := cc.Get(key(i))
		if err != nil {
			t.Fatalf("post-kill read %s: %v", key(i), err)
		}
		if !matches(i, got) {
			t.Fatalf("acked put lost: %s = %q, not among %d candidate values", key(i), got, len(candidates[i]))
		}
	}

	// Crash reboot: same address and platform, empty state. The client
	// must repair it (donor snapshot + delta + journal) back to serving.
	restarted, err := cs.RestartReplica(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !cc.Healthy() {
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica %s never rejoined: degraded=%v", victimAddr, cc.Degraded())
		}
		time.Sleep(20 * time.Millisecond)
	}
	st := cc.Stats()
	if st.Repairs < 1 {
		t.Errorf("Stats().Repairs = %d, want >= 1", st.Repairs)
	}

	// The restarted replica must hold the data itself: dial it directly
	// (not through the cluster client) and read group 0's keys off it.
	spec := specs[0][0]
	if spec.Addr != victimAddr {
		t.Fatalf("spec bookkeeping: %s != %s", spec.Addr, victimAddr)
	}
	direct, err := precursor.Dial(restarted.Addr(), precursor.DialConfig{
		PlatformKey: spec.PlatformKey,
		Measurement: spec.Measurement,
		Timeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatalf("direct dial of restarted replica: %v", err)
	}
	defer direct.Close()
	group0 := precursor.GroupName(specs[0])
	checked := 0
	for i := 0; i < keys; i++ {
		if cc.ShardFor(key(i)) != group0 {
			continue
		}
		checked++
		got, err := direct.Get(key(i))
		if err != nil {
			t.Fatalf("restarted replica missing %s: %v", key(i), err)
		}
		if !matches(i, got) {
			t.Fatalf("restarted replica serves stale %s = %q", key(i), got)
		}
	}
	if checked == 0 {
		t.Fatal("no keys landed on group 0; workload cannot have exercised the failover")
	}
	t.Logf("repaired replica %s serves %d/%d keys; failovers=%d repairs=%d",
		victimAddr, checked, keys, st.Failovers, st.Repairs)
}

// TestReplicatedBatchQuorumKillOne drives batched writes through the
// full stack — cluster router → connection pool → wire batch frames —
// while one replica of group 0 is killed mid-run:
//
//   - per-op outcomes never surface ErrShardDown while a quorum
//     survives (failover and quorum accounting are transparent to the
//     batch caller);
//   - no acked batched put is lost — every key reads back as a value
//     some batch op acked (or an unconfirmed candidate);
//   - reassembly is order-preserving across groups: each result slot
//     must answer for the key at the same index, even though the batch
//     was split per group and fanned out per replica.
func TestReplicatedBatchQuorumKillOne(t *testing.T) {
	if testing.Short() {
		t.Skip("replication batch chaos test skipped in -short mode")
	}
	const groups, replicas, quorum = 2, 3, 2
	cs, err := precursor.ServeReplicatedCluster(groups, replicas, precursor.ServerConfig{
		Workers: 1, PollInterval: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.Close)
	cc, err := precursor.DialReplicatedCluster(cs.GroupSpecs(), precursor.ClusterConfig{
		ConnsPerShard:  2,
		Timeout:        5 * time.Second,
		RetryBackoff:   50 * time.Millisecond,
		WriteQuorum:    quorum,
		RepairInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })

	const keys = 96
	key := func(i int) string { return fmt.Sprintf("bchaos%04d", i) }
	// Values encode their key index so a misrouted result slot (a
	// reassembly bug) is caught by inspection, not just by divergence.
	val := func(i, ver int) []byte { return []byte(fmt.Sprintf("i%04d-v%06d", i, ver)) }

	// Preload through one cross-group batch per 32 keys.
	var mu sync.Mutex
	candidates := make([][][]byte, keys)
	for base := 0; base < keys; base += 32 {
		ks := make([]string, 0, 32)
		vs := make([][]byte, 0, 32)
		for i := base; i < base+32 && i < keys; i++ {
			ks = append(ks, key(i))
			vs = append(vs, val(i, 0))
		}
		results, err := cc.Batch(batchOps(precursor.BatchPut, ks, vs...))
		if err != nil {
			t.Fatalf("preload batch at %d: %v", base, err)
		}
		for j, r := range results {
			if r.Err != nil {
				t.Fatalf("preload op %d: %v", base+j, r.Err)
			}
			candidates[base+j] = [][]byte{vs[j]}
		}
	}

	var (
		shardDownCount int
		hardErrs       []error
		ackedBatches   int
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := w
		wrng := rand.New(rand.NewSource(*replSeed + 100 + int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, span := w*(keys/4), keys/4
			for ver := 1; ; ver++ {
				select {
				case <-stop:
					return
				default:
				}
				// One mixed cross-group batch: a handful of puts on this
				// writer's keys plus gets on the same keys, so both halves
				// of the replicated batch path run under the kill.
				idx := make([]int, 0, 4)
				ops := make([]precursor.BatchOp, 0, 8)
				for n := 0; n < 4; n++ {
					i := lo + wrng.Intn(span)
					idx = append(idx, i)
					ops = append(ops, precursor.BatchOp{Kind: precursor.BatchPut, Key: key(i), Value: val(i, ver)})
				}
				for _, i := range idx {
					ops = append(ops, precursor.BatchOp{Kind: precursor.BatchGet, Key: key(i)})
				}
				results, err := cc.Batch(ops)
				mu.Lock()
				if err != nil || len(results) != len(ops) {
					hardErrs = append(hardErrs, fmt.Errorf("batch-level failure: %v (%d results)", err, len(results)))
					mu.Unlock()
					continue
				}
				ackedBatches++
				for j, r := range results {
					i := idx[j%len(idx)]
					switch {
					case errors.Is(r.Err, precursor.ErrShardDown):
						shardDownCount++
					case j < len(idx): // put
						switch {
						case r.Err == nil, errors.Is(r.Err, precursor.ErrUnconfirmed):
							candidates[i] = append(candidates[i], ops[j].Value)
							if len(candidates[i]) > 4 {
								candidates[i] = candidates[i][len(candidates[i])-4:]
							}
						default:
							hardErrs = append(hardErrs, fmt.Errorf("batched put %s: %w", key(i), r.Err))
						}
					case r.Err == nil: // get: value must answer for its own slot's key
						if !bytes.HasPrefix(r.Value, []byte(fmt.Sprintf("i%04d-", i))) {
							hardErrs = append(hardErrs, fmt.Errorf("reassembly: slot %d (key %s) got %q", j, key(i), r.Value))
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	cs.Groups[0][0].Close()
	time.Sleep(700 * time.Millisecond)
	close(stop)
	wg.Wait()

	if shardDownCount != 0 {
		t.Errorf("batched replicated ops surfaced ErrShardDown %d times", shardDownCount)
	}
	for _, e := range hardErrs {
		t.Errorf("workload: %v", e)
	}
	if ackedBatches == 0 {
		t.Fatal("no batch completed; workload cannot have exercised the kill")
	}

	// Durability sweep with the replica still dead, as one big
	// order-preserving cross-group read batch.
	ks := make([]string, keys)
	for i := range ks {
		ks[i] = key(i)
	}
	results, err := cc.Batch(batchOps(precursor.BatchGet, ks))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("post-kill batched read %s: %v", key(i), r.Err)
		}
		ok := false
		for _, c := range candidates[i] {
			if bytes.Equal(r.Value, c) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("acked batched put lost: %s = %q, not among %d candidates", key(i), r.Value, len(candidates[i]))
		}
	}
	st := cc.Stats()
	t.Logf("batches acked=%d failovers=%d shortfalls=%d", ackedBatches, st.Failovers, st.QuorumShortfalls)
}
