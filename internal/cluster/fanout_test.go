package cluster

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"precursor/internal/core"
	"precursor/internal/obs"
)

// gatedBackend is a replica whose writes hang until the gate opens and
// then fail at the shard level — a connection stuck in a dead pool's
// acquire wait that finally times out.
type gatedBackend struct {
	*fakeBackend
	gate chan struct{}
}

func (b gatedBackend) PutContext(ctx context.Context, key string, value []byte) error {
	<-b.gate
	return core.ErrTimeout
}

// TestQuorumWriteStragglerDoesNotBlock pins the fan-out's contract around a
// replica that does not answer: the write returns at quorum, later writes
// to the healthy replicas are not queued behind the straggler, and when
// the straggler finally reports, its result still reaches the trace and
// the breaker — on a record nobody else was handed in the meantime.
func TestQuorumWriteStragglerDoesNotBlock(t *testing.T) {
	const later = 100
	baseline := runtime.NumGoroutine()
	tr := obs.New(obs.Config{Side: obs.SideClient, Ring: 2 * later})
	gate := make(chan struct{})
	rg := ReplicaGroup{Name: "group-0", Replicas: []Shard{
		{Name: "group-0/r0", Backend: newFake()},
		{Name: "group-0/r1", Backend: newFake()},
		{Name: "group-0/r2", Backend: gatedBackend{newFake(), gate}},
	}}
	c, err := NewReplicated([]ReplicaGroup{rg}, Options{Tracer: tr, WriteQuorum: 2, DisableAutoRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	g := c.groups["group-0"]
	idle := func() int {
		g.fanMu.Lock()
		defer g.fanMu.Unlock()
		return len(g.fanFree)
	}

	for i := 0; i <= later; i++ {
		done := make(chan error, 1)
		go func() { done <- c.Put(fmt.Sprintf("key-%03d", i), []byte("v")) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("put %d waited for the straggler", i)
		}
	}
	for _, name := range []string{"group-0/r0", "group-0/r1"} {
		waitFor(t, name+" to apply every write", func() bool { return c.reps[name].puts.Load() == later+1 })
	}
	// Every write is still owed r2's result: its record is out, its trace
	// unfinished, the breaker untouched.
	if n := idle(); n != 0 {
		t.Fatalf("%d fan-out records recycled with a writer still running", n)
	}
	if n := len(tr.Recent()); n != 0 {
		t.Fatalf("%d traces finished before their last replica span", n)
	}
	if d := c.Degraded(); len(d) != 0 {
		t.Fatalf("degraded before the straggler reported: %v", d)
	}

	close(gate)
	waitFor(t, "every record to come back", func() bool { return idle() == later+1 })
	if d := c.Degraded(); !slices.Equal(d, []string{"group-0/r2"}) {
		t.Errorf("degraded = %v, want the straggler's breaker tripped", d)
	}
	if n := c.reps["group-0/r2"].errors.Load(); n != later+1 {
		t.Errorf("straggler's breaker saw %d results, want %d", n, later+1)
	}
	traces := tr.Recent()
	if len(traces) != later+1 {
		t.Fatalf("%d traces finished, want %d", len(traces), later+1)
	}
	for _, tc := range traces {
		var replicas []string
		for _, sp := range tc.Spans {
			if sp.Stage == obs.CliReplica {
				replicas = append(replicas, sp.Replica)
			}
		}
		slices.Sort(replicas)
		if !slices.Equal(replicas, []string{"group-0/r0", "group-0/r1", "group-0/r2"}) {
			t.Fatalf("trace %x has replica spans %v", tc.ID, replicas)
		}
	}

	// The parked writers belong to the client: closing it ends them.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the writer goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline })
}
