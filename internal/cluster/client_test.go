package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"precursor/internal/core"
	"precursor/internal/obs"
)

// fakeBackend is an in-memory Backend with injectable failures and read
// delay; it records what every call's ctx carried, so tests can assert
// what the cluster client propagates.
type fakeBackend struct {
	mu        sync.Mutex
	m         map[string][]byte
	fail      error // when non-nil every op returns it
	closed    bool
	refs      []obs.SpanRef // per call: the span ref its ctx carried
	deadlines []time.Time   // per call: its ctx's deadline (zero = none)

	calls      atomic.Uint64 // single ops that reached the backend
	batchCalls atomic.Uint64 // batch frames that reached the backend
	batchedOps atomic.Uint64 // ops those frames carried
	getDelay   atomic.Int64  // nanoseconds every GetContext sleeps first
}

func newFake() *fakeBackend { return &fakeBackend{m: map[string][]byte{}} }

func (f *fakeBackend) setFail(err error) {
	f.mu.Lock()
	f.fail = err
	f.mu.Unlock()
}

// seen returns the span ref of every call so far, in order.
func (f *fakeBackend) seen() []obs.SpanRef {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]obs.SpanRef(nil), f.refs...)
}

// note records what a call's ctx carried.
func (f *fakeBackend) note(ctx context.Context) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.refs = append(f.refs, obs.RefFrom(ctx))
	d, _ := ctx.Deadline()
	f.deadlines = append(f.deadlines, d)
}

// apply runs ops against the map, with core.Client's per-op semantics.
func (f *fakeBackend) apply(ops ...core.BatchOp) []core.BatchResult {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]core.BatchResult, len(ops))
	for i, op := range ops {
		v, ok := f.m[op.Key]
		switch {
		case f.fail != nil:
			out[i].Err = f.fail
		case op.Kind == core.BatchPut:
			f.m[op.Key] = append([]byte(nil), op.Value...)
		case !ok:
			out[i].Err = core.ErrNotFound
		case op.Kind == core.BatchGet:
			out[i].Value = v
		default:
			delete(f.m, op.Key)
		}
	}
	return out
}

func (f *fakeBackend) PutContext(ctx context.Context, key string, value []byte) error {
	f.calls.Add(1)
	f.note(ctx)
	return f.apply(core.BatchOp{Kind: core.BatchPut, Key: key, Value: value})[0].Err
}

func (f *fakeBackend) GetContext(ctx context.Context, key string) ([]byte, error) {
	f.calls.Add(1)
	f.note(ctx)
	time.Sleep(time.Duration(f.getDelay.Load()))
	r := f.apply(core.BatchOp{Kind: core.BatchGet, Key: key})[0]
	return r.Value, r.Err
}

func (f *fakeBackend) DeleteContext(ctx context.Context, key string) error {
	f.calls.Add(1)
	f.note(ctx)
	return f.apply(core.BatchOp{Kind: core.BatchDelete, Key: key})[0].Err
}

func (f *fakeBackend) BatchContext(ctx context.Context, ops []core.BatchOp) ([]core.BatchResult, error) {
	f.batchCalls.Add(1)
	f.batchedOps.Add(uint64(len(ops)))
	f.note(ctx)
	return f.apply(ops...), nil
}

func (f *fakeBackend) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

func newFakeCluster(t *testing.T, n int, opts Options) (*Client, map[string]*fakeBackend) {
	t.Helper()
	backends := map[string]*fakeBackend{}
	var shards []Shard
	for _, name := range ShardNames(n) {
		b := newFake()
		backends[name] = b
		shards = append(shards, Shard{Name: name, Backend: b})
	}
	c, err := NewReplicated(groupsOfOne(shards), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, backends
}

// groupsOfOne makes every shard a ring position of its own, named by the
// shard — the layout the root package's DialCluster builds.
func groupsOfOne(shards []Shard) []ReplicaGroup {
	groups := make([]ReplicaGroup, len(shards))
	for i, s := range shards {
		groups[i] = ReplicaGroup{Name: s.Name, Replicas: shards[i : i+1]}
	}
	return groups
}

// TestClientRouting: every key is written to the shard the ring names and
// read back from it; per-shard counters line up.
func TestClientRouting(t *testing.T) {
	c, backends := newFakeCluster(t, 4, Options{})
	const n = 1000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%04d", i)
		if err := c.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
		home := c.ShardFor(k)
		backends[home].mu.Lock()
		_, onHome := backends[home].m[k]
		backends[home].mu.Unlock()
		if !onHome {
			t.Fatalf("key %q not stored on its ring shard %s", k, home)
		}
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%04d", i)
		v, err := c.Get(k)
		if err != nil || string(v) != k {
			t.Fatalf("get %q: %q %v", k, v, err)
		}
	}
	st := c.Stats()
	if st.Puts != n || st.Gets != n {
		t.Errorf("aggregate puts=%d gets=%d want %d/%d", st.Puts, st.Gets, n, n)
	}
	var sum uint64
	for _, ss := range st.Shards {
		if ss.Puts == 0 {
			t.Errorf("shard %s received no keys", ss.Name)
		}
		sum += ss.Puts
	}
	if sum != n {
		t.Errorf("per-shard puts sum to %d, want %d", sum, n)
	}
}

// TestClientBreaker: a shard-level failure opens the breaker — later ops
// fail fast with a typed error without touching the backend — while the
// other shards keep serving; after the backoff a probe heals it.
func TestClientBreaker(t *testing.T) {
	c, backends := newFakeCluster(t, 4, Options{RetryBackoff: 50 * time.Millisecond})

	// Find one key per shard.
	keyOn := map[string]string{}
	for i := 0; len(keyOn) < 4; i++ {
		k := fmt.Sprintf("probe%06d", i)
		keyOn[c.ShardFor(k)] = k
	}
	const victim = "shard-2"
	backends[victim].setFail(core.ErrClosed)

	// First op pays the real error, typed and attributed to the shard.
	err := c.Put(keyOn[victim], []byte("x"))
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != victim || !errors.Is(err, core.ErrClosed) {
		t.Fatalf("first failure = %v, want ShardError{%s} wrapping ErrClosed", err, victim)
	}

	// While the breaker is open, ops fail fast without a backend call.
	before := backends[victim].calls.Load()
	start := time.Now()
	_, err = c.Get(keyOn[victim])
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("breaker-open error = %v, want ErrShardDown", err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Errorf("fail-fast took %v", d)
	}
	if got := backends[victim].calls.Load(); got != before {
		t.Errorf("breaker-open op reached the backend (%d -> %d calls)", before, got)
	}
	if deg := c.Degraded(); len(deg) != 1 || deg[0] != victim {
		t.Errorf("Degraded() = %v, want [%s]", deg, victim)
	}
	if c.Healthy() {
		t.Error("Healthy() with a down shard")
	}

	// Other shards are unaffected.
	for name, k := range keyOn {
		if name == victim {
			continue
		}
		if err := c.Put(k, []byte("y")); err != nil {
			t.Errorf("healthy shard %s failed: %v", name, err)
		}
	}

	// After the backoff, the shard heals and one probe goes through.
	backends[victim].setFail(nil)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := c.Put(keyOn[victim], []byte("z")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never recovered after backoff")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if deg := c.Degraded(); len(deg) != 0 {
		t.Errorf("Degraded() after recovery = %v", deg)
	}
}

// TestClientDataErrorsDoNotTrip: not-found is a data answer, not an
// outage — the breaker stays closed.
func TestClientDataErrorsDoNotTrip(t *testing.T) {
	c, _ := newFakeCluster(t, 2, Options{})
	if _, err := c.Get("missing"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("get missing: %v", err)
	}
	if !c.Healthy() {
		t.Errorf("not-found tripped the breaker: degraded=%v", c.Degraded())
	}
	st := c.Stats()
	if st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}
}

// TestClientBackoffGrows: consecutive probe failures push retryAt out
// exponentially, so a dead shard is probed ever more rarely.
func TestClientBackoffGrows(t *testing.T) {
	c, backends := newFakeCluster(t, 1, Options{
		RetryBackoff: 10 * time.Millisecond,
		MaxBackoff:   100 * time.Millisecond,
	})
	backends["shard-0"].setFail(core.ErrTimeout)
	_ = c.Put("k", nil) // trip
	probes := backends["shard-0"].calls.Load()
	// Hammer for 150ms: with 10ms->20ms->40ms... backoff only a handful
	// of probes may pass; without backoff this would be thousands.
	stop := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(stop) {
		_ = c.Put("k", nil)
	}
	if got := backends["shard-0"].calls.Load() - probes; got > 8 {
		t.Errorf("%d probes reached a dead shard in 150ms; backoff not applied", got)
	}
}

func TestClientClose(t *testing.T) {
	c, backends := newFakeCluster(t, 3, Options{})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	for name, b := range backends {
		b.mu.Lock()
		closed := b.closed
		b.mu.Unlock()
		if !closed {
			t.Errorf("backend %s not closed", name)
		}
	}
	if err := c.Put("k", nil); !errors.Is(err, ErrClientClosed) {
		t.Errorf("op after close: %v", err)
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrClientClosed) {
		t.Errorf("get after close: %v", err)
	}
}

// TestClientConcurrent drives many goroutines through the client while a
// shard flaps, for the race detector's benefit.
func TestClientConcurrent(t *testing.T) {
	c, backends := newFakeCluster(t, 4, Options{RetryBackoff: time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i)
				_ = c.Put(k, []byte(k))
				_, _ = c.Get(k)
				_ = c.Degraded()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			backends["shard-1"].setFail(core.ErrClosed)
			time.Sleep(time.Millisecond)
			backends["shard-1"].setFail(nil)
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	_ = c.Stats()
}

func TestParseShardID(t *testing.T) {
	id, err := ParseShardID("2/4")
	if err != nil || id.Index != 2 || id.Count != 4 {
		t.Fatalf("ParseShardID(2/4) = %+v, %v", id, err)
	}
	if id.String() != "2/4" {
		t.Errorf("String() = %q", id.String())
	}
	for _, bad := range []string{"", "3", "4/4", "-1/4", "a/b", "1/0"} {
		if _, err := ParseShardID(bad); err == nil {
			t.Errorf("ParseShardID(%q) accepted", bad)
		}
	}
	names := ShardNames(3)
	if len(names) != 3 || names[0] != "shard-0" || names[2] != "shard-2" {
		t.Errorf("ShardNames(3) = %v", names)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := NewReplicated(nil, Options{}); !errors.Is(err, ErrNoShards) {
		t.Errorf("NewReplicated(nil) = %v", err)
	}
	b := newFake()
	if _, err := NewReplicated(groupsOfOne([]Shard{{Name: "a", Backend: b}, {Name: "a", Backend: b}}), Options{}); err == nil {
		t.Error("duplicate shard names accepted")
	}
}
