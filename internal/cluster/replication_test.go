package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"precursor/internal/core"
)

// fakeRepairHub implements the repair transport over fakeBackends: a
// "snapshot" is the donor's map serialized (the real one is an opaque
// sealed blob, but the orchestration under test only ferries bytes).
type fakeRepairHub struct {
	mu        sync.Mutex
	backends  map[string]*fakeBackend
	gen       map[string]uint64
	fetches   int
	pushes    int
	truncOnce bool // next DeltaSince fails ErrDeltaTruncated (simulated delta overflow)
}

func (h *fakeRepairHub) open(replica string) (RepairSession, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.backends[replica] == nil {
		return nil, fmt.Errorf("no such replica %q", replica)
	}
	return &fakeSession{hub: h, name: replica}, nil
}

type fakeSession struct {
	hub  *fakeRepairHub
	name string
	gen  uint64 // generation of this session's last FetchSnapshot
}

func (s *fakeSession) FetchSnapshot(w io.Writer) (uint64, error) {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	b := s.hub.backends[s.name]
	b.mu.Lock()
	blob, err := json.Marshal(b.m)
	b.mu.Unlock()
	if err != nil {
		return 0, err
	}
	s.hub.gen[s.name]++
	s.hub.fetches++
	if _, err := w.Write(blob); err != nil {
		return 0, err
	}
	s.gen = s.hub.gen[s.name]
	return s.gen, nil
}

func (s *fakeSession) PushSnapshot(r io.Reader) (int, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	var m map[string][]byte
	if err := json.Unmarshal(blob, &m); err != nil {
		return 0, err
	}
	if m == nil {
		m = map[string][]byte{}
	}
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	b := s.hub.backends[s.name]
	b.mu.Lock()
	b.m = m
	b.mu.Unlock()
	s.hub.pushes++
	return len(m), nil
}

func (s *fakeSession) DeltaSince(gen uint64) ([]string, error) {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	if s.hub.truncOnce {
		s.hub.truncOnce = false
		return nil, core.ErrDeltaTruncated
	}
	if gen == 0 || gen != s.gen {
		return nil, core.ErrSealGeneration
	}
	return nil, nil
}

func (s *fakeSession) Close() error { return nil }

// newReplicatedFakes builds a one-group replicated client over fake
// backends. Replica names are "group-0/r0", "group-0/r1", ...
func newReplicatedFakes(t *testing.T, replicas int, withRepair bool, opts Options) (*Client, []*fakeBackend, *fakeRepairHub) {
	t.Helper()
	hub := &fakeRepairHub{backends: map[string]*fakeBackend{}, gen: map[string]uint64{}}
	rg := ReplicaGroup{Name: "group-0"}
	var fakes []*fakeBackend
	for r := 0; r < replicas; r++ {
		name := fmt.Sprintf("group-0/r%d", r)
		b := newFake()
		hub.backends[name] = b
		fakes = append(fakes, b)
		rg.Replicas = append(rg.Replicas, Shard{Name: name, Backend: b})
	}
	if withRepair {
		opts.OpenRepair = hub.open
	}
	c, err := NewReplicated([]ReplicaGroup{rg}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, fakes, hub
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (f *fakeBackend) get(key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.m[key]
	return v, ok
}

// TestQuorumFor pins the write-quorum resolution rules.
func TestQuorumFor(t *testing.T) {
	for _, tt := range []struct{ r, req, want int }{
		{1, 0, 1},  // singleton majority
		{2, 0, 2},  // R=2 majority is both
		{3, 0, 2},  // R=3 majority
		{4, 0, 3},  // R=4 majority
		{3, 1, 1},  // explicit W
		{3, 3, 3},  // explicit all
		{3, 9, 3},  // clamped to R
		{3, -2, 2}, // nonsense falls back to majority
	} {
		if got := quorumFor(tt.r, tt.req); got != tt.want {
			t.Errorf("quorumFor(%d, %d) = %d, want %d", tt.r, tt.req, got, tt.want)
		}
	}
}

// TestReplicatedQuorumWrite: an all-up write lands on every replica; with
// one replica failing the write still succeeds on the surviving quorum
// while the victim is journaled for repair — no ErrShardDown.
func TestReplicatedQuorumWrite(t *testing.T) {
	c, fakes, _ := newReplicatedFakes(t, 3, false, Options{WriteQuorum: 2, DisableAutoRepair: true})
	if err := c.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Quorum may return before the slowest replica applies; all three
	// converge shortly after.
	waitFor(t, "all replicas to hold k1", func() bool {
		for _, f := range fakes {
			if v, ok := f.get("k1"); !ok || string(v) != "v1" {
				return false
			}
		}
		return true
	})

	fakes[2].setFail(core.ErrClosed)
	if err := c.Put("k2", []byte("v2")); err != nil {
		t.Fatalf("quorum write with one dead replica: %v", err)
	}
	if v, err := c.Get("k2"); err != nil || string(v) != "v2" {
		t.Fatalf("read after degraded write: %q, %v", v, err)
	}
	// The victim's failed write is observed asynchronously (the collector
	// returns at quorum): it ends up repairing with the key journaled.
	waitFor(t, "victim marked degraded with lag", func() bool {
		for _, ss := range c.Stats().Shards {
			if ss.Name == "group-0/r2" {
				return ss.State != "up" && ss.Lag > 0
			}
		}
		return false
	})
}

// TestReplicaLatencyStripesPerProcessor: a replica's latency histogram has
// one stripe per processor, not hist.DefaultShards, so 1 000 writes through
// a two-replica client leave each replica at most GOMAXPROCS bucket arrays
// of 29 KiB, and the client's stats still read its quantiles.
func TestReplicaLatencyStripesPerProcessor(t *testing.T) {
	c, _, _ := newReplicatedFakes(t, 2, false, Options{DisableAutoRepair: true})
	for i := 0; i < 1000; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i%50), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for name, rep := range c.reps {
		if n, procs := rep.lat.Shards(), runtime.GOMAXPROCS(0); n > procs {
			t.Errorf("%s: %d latency stripes on %d processors", name, n, procs)
		}
	}
	for _, ss := range c.Stats().Shards {
		if q := ss.Latency; q.Count == 0 || q.P50 <= 0 || q.P99 < q.P50 {
			t.Errorf("%s: latency quantiles %+v after 1 000 writes", ss.Name, q)
		}
	}
}

// TestReplicatedQuorumShortfall: when W cannot be met the write fails
// with ErrNoQuorum, and — because some replicas applied it — the outcome
// is flagged ErrUnconfirmed, attributed to the owning group.
func TestReplicatedQuorumShortfall(t *testing.T) {
	c, fakes, _ := newReplicatedFakes(t, 3, false, Options{WriteQuorum: 3, DisableAutoRepair: true})
	fakes[1].setFail(core.ErrClosed)
	err := c.Put("k", []byte("v"))
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Put below quorum = %v, want ErrNoQuorum", err)
	}
	if !errors.Is(err, core.ErrUnconfirmed) {
		t.Fatalf("partial write not flagged unconfirmed: %v", err)
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != "group-0" {
		t.Fatalf("shortfall not attributed to the group: %v", err)
	}
	if c.Stats().QuorumShortfalls != 1 {
		t.Errorf("QuorumShortfalls = %d, want 1", c.Stats().QuorumShortfalls)
	}
}

// TestReplicatedDeleteNotFound: replicas answering not-found count as
// delete acks (the desired end state), and an all-not-found quorum
// surfaces as ErrNotFound without tripping anything.
func TestReplicatedDeleteNotFound(t *testing.T) {
	c, _, _ := newReplicatedFakes(t, 3, false, Options{DisableAutoRepair: true})
	if err := c.Delete("ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("Delete(missing) = %v, want ErrNotFound", err)
	}
	if !c.Healthy() {
		t.Errorf("not-found delete degraded replicas: %v", c.Degraded())
	}
	// A real delete reaching quorum returns nil even if a straggler
	// replica had not applied the put yet.
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("k"); err != nil {
		t.Fatalf("Delete(existing) = %v", err)
	}
}

// TestReplicatedReadFailover: reads prefer the fastest replica but fail
// over on outages and on MAC failures (the Byzantine-replica backstop),
// without ever surfacing ErrShardDown while a healthy replica remains.
func TestReplicatedReadFailover(t *testing.T) {
	c, fakes, _ := newReplicatedFakes(t, 3, false, Options{DisableAutoRepair: true})
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replication of k", func() bool {
		for _, f := range fakes {
			if _, ok := f.get("k"); !ok {
				return false
			}
		}
		return true
	})
	// Pin the read order: r0 looks fastest, so it is tried first.
	c.reps["group-0/r0"].ewma.Store(1)
	c.reps["group-0/r1"].ewma.Store(int64(time.Millisecond))
	c.reps["group-0/r2"].ewma.Store(int64(time.Millisecond))

	// A MAC failure on the preferred replica: data-level, so the breaker
	// stays closed, but the read moves to the next replica.
	fakes[0].setFail(core.ErrIntegrity)
	v, err := c.Get("k")
	if err != nil || string(v) != "v" {
		t.Fatalf("read with corrupt preferred replica: %q, %v", v, err)
	}
	if c.Stats().Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", c.Stats().Failovers)
	}
	if got := c.Degraded(); len(got) != 0 {
		t.Errorf("integrity failure tripped the breaker: %v", got)
	}

	// A transport failure on the preferred replica: trips it, read fails
	// over; the next read skips it entirely.
	fakes[0].setFail(core.ErrClosed)
	if v, err := c.Get("k"); err != nil || string(v) != "v" {
		t.Fatalf("read during replica outage: %q, %v", v, err)
	}
	waitFor(t, "r0 marked degraded", func() bool { return len(c.Degraded()) == 1 })
	if v, err := c.Get("k"); err != nil || string(v) != "v" {
		t.Fatalf("read after trip: %q, %v", v, err)
	}
	// Not-found from an up replica stays authoritative.
	if _, err := c.Get("missing"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("Get(missing) = %v", err)
	}
}

// TestReplicatedJournalRepair: a replica that missed writes (but kept
// its state) is caught up by journal replay alone — no snapshot
// transport configured — and then serves the repaired data.
func TestReplicatedJournalRepair(t *testing.T) {
	c, fakes, _ := newReplicatedFakes(t, 3, false, Options{
		RetryBackoff:   2 * time.Millisecond,
		RepairInterval: 2 * time.Millisecond,
	})
	for i := 0; i < 10; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	fakes[2].setFail(core.ErrClosed)
	for i := 0; i < 10; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte("v2")); err != nil {
			t.Fatalf("put during outage: %v", err)
		}
	}
	fakes[2].setFail(nil)
	waitFor(t, "journal repair to finish", func() bool {
		if !c.Healthy() {
			return false
		}
		for i := 0; i < 10; i++ {
			if v, ok := fakes[2].get(fmt.Sprintf("k%d", i)); !ok || string(v) != "v2" {
				return false
			}
		}
		return true
	})
	if got := c.Stats().Repairs; got < 1 {
		t.Errorf("Repairs = %d, want >= 1", got)
	}
}

// TestMutualRepairConverges: with W = N = 2, one distinct failed write
// per replica leaves both replicas repairing, each the other's only
// donor. Repair must not wait for a healthy donor that cannot exist:
// whichever replica repairs first, both return to up with equal
// contents. Keys only one replica missed are copied from the other; a
// key both missed (never acked) settles on the first-named replica's
// version.
func TestMutualRepairConverges(t *testing.T) {
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		t.Run(fmt.Sprintf("repair-order-%v", order), func(t *testing.T) {
			c, fakes, _ := newReplicatedFakes(t, 2, false, Options{WriteQuorum: 2, DisableAutoRepair: true})
			if err := c.Put("base", []byte("v0")); err != nil {
				t.Fatal(err)
			}
			// An unconfirmed write journals its key without tripping the
			// breaker: the replica stays live, but repairing.
			missed := fmt.Errorf("%w; %w", core.ErrReplay, core.ErrUnconfirmed)
			failOn := func(r int, key, value string) {
				t.Helper()
				fakes[r].setFail(missed)
				if err := c.Put(key, []byte(value)); err == nil {
					t.Fatalf("put %q acked although replica %d failed it", key, r)
				}
				fakes[r].setFail(nil)
			}
			failOn(0, "only-r0-missed", "a") // r1 applied it
			failOn(0, "both-missed", "b1")   // r1 applied b1 ...
			failOn(1, "both-missed", "b2")   // ... and missed b2, which r0 (repairing) skipped
			failOn(1, "neither-has", "c")
			if got := c.Degraded(); len(got) != 2 {
				t.Fatalf("Degraded = %v, want both replicas repairing", got)
			}

			g := c.groups["group-0"]
			for _, r := range order {
				if err := c.runRepair(g, g.replicas[r]); err != nil {
					t.Fatalf("repair of r%d: %v", r, err)
				}
			}
			if !c.Healthy() {
				t.Fatalf("still degraded after repair: %v", c.Degraded())
			}
			fakes[0].mu.Lock()
			fakes[1].mu.Lock()
			defer fakes[0].mu.Unlock()
			defer fakes[1].mu.Unlock()
			if !reflect.DeepEqual(fakes[0].m, fakes[1].m) {
				t.Fatalf("replicas diverge after repair:\nr0 = %q\nr1 = %q", fakes[0].m, fakes[1].m)
			}
			if v := fakes[0].m["only-r0-missed"]; string(v) != "a" {
				t.Errorf("only-r0-missed = %q, want the value r1 held", v)
			}
			if v, ok := fakes[0].m["both-missed"]; ok {
				t.Errorf("both-missed = %q, want r0's version (absent) to win the tie", v)
			}
		})
	}
}

// TestMutualRepairKeepsAckedWrite: below W = N the tie-break of
// TestMutualRepairConverges would be unsafe — a write one replica missed
// may have been acked by the other — so a key both replicas journaled
// waits for a better donor instead of settling on either version.
func TestMutualRepairKeepsAckedWrite(t *testing.T) {
	c, fakes, _ := newReplicatedFakes(t, 2, false, Options{WriteQuorum: 1, DisableAutoRepair: true})
	missed := fmt.Errorf("%w; %w", core.ErrReplay, core.ErrUnconfirmed)
	fakes[0].setFail(missed)
	if err := c.Put("k", []byte("acked")); err != nil {
		t.Fatalf("W=1 put with one replica failing: %v", err)
	}
	// The put resolved on r1's ack alone; r0's failure lands behind it.
	waitFor(t, "r0 to journal the write it missed", func() bool { return len(c.Degraded()) == 1 })
	fakes[0].setFail(nil)
	fakes[1].setFail(missed)
	if err := c.Put("k", []byte("lost")); err == nil {
		t.Fatal("put acked with no replica applying it")
	}
	fakes[1].setFail(nil)

	g := c.groups["group-0"]
	for _, rep := range g.replicas {
		if err := c.runRepair(g, rep); err == nil {
			t.Errorf("repair of %s settled a key whose acked version it cannot identify", rep.name)
		}
	}
	if v, _ := fakes[1].get("k"); string(v) != "acked" {
		t.Errorf("r1 holds %q, want the acked write preserved", v)
	}
}

// TestReplicatedFullSyncRepair: a replica whose journal overflowed (or
// whose state is suspect) is rebuilt from a donor snapshot — including
// surviving a truncated delta, after which the next repair scan starts
// over with a fresh snapshot.
func TestReplicatedFullSyncRepair(t *testing.T) {
	c, fakes, hub := newReplicatedFakes(t, 3, true, Options{
		RetryBackoff:   2 * time.Millisecond,
		RepairInterval: 2 * time.Millisecond,
		JournalCap:     2, // overflow after two missed writes
	})
	for i := 0; i < 10; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	fakes[2].setFail(core.ErrClosed)
	for i := 0; i < 10; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte("v2")); err != nil {
			t.Fatalf("put during outage: %v", err)
		}
	}
	// The replica also "lost" its state, and the first delta query will
	// report an overflowed delta.
	fakes[2].mu.Lock()
	fakes[2].m = map[string][]byte{}
	fakes[2].mu.Unlock()
	hub.mu.Lock()
	hub.truncOnce = true
	hub.mu.Unlock()
	fakes[2].setFail(nil)

	waitFor(t, "full-sync repair to finish", func() bool {
		if !c.Healthy() {
			return false
		}
		for i := 0; i < 10; i++ {
			if v, ok := fakes[2].get(fmt.Sprintf("k%d", i)); !ok || string(v) != "v2" {
				return false
			}
		}
		return true
	})
	hub.mu.Lock()
	fetches, pushes := hub.fetches, hub.pushes
	hub.mu.Unlock()
	if pushes < 2 || fetches < 2 {
		t.Errorf("truncated delta not retried: fetches=%d pushes=%d, want >= 2 each", fetches, pushes)
	}
	if got := c.Stats().Repairs; got < 1 {
		t.Errorf("Repairs = %d, want >= 1", got)
	}
}

// TestReplicatedGroupOutageAndReadResurrection: with every replica down
// the group fails typed (ErrShardDown); once the servers return, a
// read-only workload alone resurrects the group via breaker probes.
func TestReplicatedGroupOutageAndReadResurrection(t *testing.T) {
	c, fakes, _ := newReplicatedFakes(t, 2, false, Options{
		RetryBackoff:      2 * time.Millisecond,
		DisableAutoRepair: true, // recovery must come from the read path itself
	})
	for _, f := range fakes {
		f.setFail(core.ErrTimeout)
	}
	if _, err := c.Get("k"); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("first failing read = %v, want the real error", err)
	}
	waitFor(t, "both replicas tripped", func() bool { return !c.Available() })
	if _, err := c.Get("k"); err == nil {
		t.Fatal("read with whole group down succeeded")
	}
	for _, f := range fakes {
		f.setFail(nil)
	}
	waitFor(t, "read probes to resurrect the group", func() bool {
		_, err := c.Get("k")
		return errors.Is(err, core.ErrNotFound)
	})
	if !c.Available() {
		t.Error("group not available after resurrection")
	}
}
