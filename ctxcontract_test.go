package precursor_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"precursor"
	"precursor/internal/cluster"
	"precursor/internal/core"
	"precursor/internal/faultfab"
	"precursor/internal/obs"
)

// The ctx contract (PROTOCOL.md §9), checked once for every layer of the
// client stack and every operation: the table below is stacks × ops, and
// each TestCtxContract* subtest is one clause of the contract.

// ctxStack is one layer of the client stack under test, driven through
// the one call shape all of them share.
type ctxStack struct {
	kv cluster.Backend
	// reached counts the operations that arrived at a server (or fake).
	reached func() uint64
	// stall makes every server stop answering from now on: request frames
	// are held on the wire, so an operation can only end at its deadline.
	stall func()
	// hops returns, per tracing hop, the trace id and parent span of every
	// trace recorded so far.
	hops func() map[string][]hopTrace
}

type hopTrace struct{ id, parent uint64 }

type ctxStackOpts struct {
	timeout time.Duration
	// tracers attaches client-side tracers (per connection and, for the
	// cluster stacks, the cluster's own); servers are always traced.
	tracers bool
}

func tracesOf(tr *precursor.Tracer) []hopTrace {
	var out []hopTrace
	for _, t := range tr.Recent() {
		out = append(out, hopTrace{t.ID, t.Parent})
	}
	return out
}

func newTracer(side precursor.TracerSide) *precursor.Tracer {
	return precursor.NewTracer(precursor.TracerConfig{Side: side, Ring: 256})
}

// realStack serves `replicas` TCP-fabric servers and hands dial the
// pieces every real stack shares: specs, a DialConfig whose wire can be
// stalled, and the hop map.
func realStack(t *testing.T, o ctxStackOpts, replicas int,
	dial func(specs [][]precursor.ShardSpec, dc precursor.DialConfig, clusterTr *precursor.Tracer) (cluster.Backend, error)) *ctxStack {
	t.Helper()
	srvTr := newTracer(precursor.SideServer)
	cs, err := precursor.ServeReplicatedCluster(1, replicas, precursor.ServerConfig{
		Workers: 1, PollInterval: 50 * time.Microsecond, Tracer: srvTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.Close)
	wire := faultfab.New(faultfab.Config{Seed: 1}) // faultless until partitioned
	var conns atomic.Uint64
	var cliTr, clsTr *precursor.Tracer
	if o.tracers {
		cliTr, clsTr = newTracer(precursor.SideClient), newTracer(precursor.SideClient)
	}
	spec := cs.GroupSpecs()
	kv, err := dial(spec, precursor.DialConfig{
		PlatformKey: spec[0][0].PlatformKey, Measurement: spec[0][0].Measurement,
		Timeout: o.timeout, Tracer: cliTr,
		WrapConn: func(c precursor.Conn) precursor.Conn {
			return wire.Wrap(c, faultfab.C2S, fmt.Sprintf("conn%d", conns.Add(1)))
		},
	}, clsTr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		wire.Heal(faultfab.C2S)
		_ = kv.Close()
	})
	return &ctxStack{
		kv: kv,
		reached: func() (n uint64) {
			for _, svc := range cs.Groups[0] {
				st := svc.Server.Stats()
				n += st.Puts + st.Gets + st.Deletes
			}
			return n
		},
		stall: func() { wire.Partition(faultfab.C2S) },
		hops: func() map[string][]hopTrace {
			h := map[string][]hopTrace{"server": tracesOf(srvTr)}
			if o.tracers {
				h["client"] = tracesOf(cliTr)
				if replicas > 1 {
					h["cluster"] = tracesOf(clsTr)
				}
			}
			return h
		},
	}
}

// ctxFake is an in-memory cluster.Backend that honours its ctx and its
// Timeout the way a real backend does, and records the span ref every
// call carried.
type ctxFake struct {
	timeout time.Duration
	mu      sync.Mutex
	m       map[string][]byte
	refs    []hopTrace
	calls   atomic.Uint64
	stalled atomic.Bool
}

func (f *ctxFake) do(ctx context.Context, ops ...core.BatchOp) ([]core.BatchResult, error) {
	deadline, err := core.OpDeadline(ctx, f.timeout)
	if err != nil {
		return nil, err
	}
	f.calls.Add(1)
	if f.stalled.Load() {
		time.Sleep(time.Until(deadline))
		return nil, fmt.Errorf("%w; %w", core.ErrTimeout, core.ErrUnconfirmed)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ref := obs.RefFrom(ctx)
	f.refs = append(f.refs, hopTrace{ref.TraceID, ref.SpanID})
	out := make([]core.BatchResult, len(ops))
	for i, op := range ops {
		v, ok := f.m[op.Key]
		switch {
		case op.Kind == core.BatchPut:
			f.m[op.Key] = op.Value
		case !ok:
			out[i].Err = core.ErrNotFound
		case op.Kind == core.BatchGet:
			out[i].Value = v
		default:
			delete(f.m, op.Key)
		}
	}
	return out, nil
}

func (f *ctxFake) one(ctx context.Context, op core.BatchOp) ([]byte, error) {
	res, err := f.do(ctx, op)
	if err != nil {
		return nil, err
	}
	return res[0].Value, res[0].Err
}

func (f *ctxFake) PutContext(ctx context.Context, key string, value []byte) error {
	_, err := f.one(ctx, core.BatchOp{Kind: core.BatchPut, Key: key, Value: value})
	return err
}

func (f *ctxFake) GetContext(ctx context.Context, key string) ([]byte, error) {
	return f.one(ctx, core.BatchOp{Kind: core.BatchGet, Key: key})
}

func (f *ctxFake) DeleteContext(ctx context.Context, key string) error {
	_, err := f.one(ctx, core.BatchOp{Kind: core.BatchDelete, Key: key})
	return err
}

func (f *ctxFake) BatchContext(ctx context.Context, ops []core.BatchOp) ([]core.BatchResult, error) {
	return f.do(ctx, ops...)
}

func (f *ctxFake) Close() error { return nil }

// ctxStacks is the table's stack axis.
var ctxStacks = []struct {
	name  string
	build func(t *testing.T, o ctxStackOpts) *ctxStack
}{
	{"client", func(t *testing.T, o ctxStackOpts) *ctxStack {
		return realStack(t, o, 1, func(s [][]precursor.ShardSpec, dc precursor.DialConfig, _ *precursor.Tracer) (cluster.Backend, error) {
			return precursor.Dial(s[0][0].Addr, dc)
		})
	}},
	{"pool", func(t *testing.T, o ctxStackOpts) *ctxStack {
		return realStack(t, o, 1, func(s [][]precursor.ShardSpec, dc precursor.DialConfig, _ *precursor.Tracer) (cluster.Backend, error) {
			return precursor.NewPool(s[0][0].Addr, dc, 1)
		})
	}},
	{"cluster-r2-fakes", func(t *testing.T, o ctxStackOpts) *ctxStack {
		fakes := []*ctxFake{{timeout: o.timeout, m: map[string][]byte{}}, {timeout: o.timeout, m: map[string][]byte{}}}
		var clsTr *obs.Tracer
		if o.tracers {
			clsTr = newTracer(precursor.SideClient)
		}
		c, err := cluster.NewReplicated([]cluster.ReplicaGroup{{Name: "g", Replicas: []cluster.Shard{
			{Name: "g/r0", Backend: fakes[0]}, {Name: "g/r1", Backend: fakes[1]},
		}}}, cluster.Options{DisableAutoRepair: true, Tracer: clsTr})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return &ctxStack{
			kv:      c,
			reached: func() uint64 { return fakes[0].calls.Load() + fakes[1].calls.Load() },
			stall: func() {
				fakes[0].stalled.Store(true)
				fakes[1].stalled.Store(true)
			},
			hops: func() map[string][]hopTrace {
				h := map[string][]hopTrace{}
				for _, f := range fakes {
					f.mu.Lock()
					h["server"] = append(h["server"], f.refs...)
					f.mu.Unlock()
				}
				if o.tracers {
					h["cluster"] = tracesOf(clsTr)
				}
				return h
			},
		}
	}},
	{"cluster-r2-tcp", func(t *testing.T, o ctxStackOpts) *ctxStack {
		return realStack(t, o, 2, func(s [][]precursor.ShardSpec, dc precursor.DialConfig, clsTr *precursor.Tracer) (cluster.Backend, error) {
			return precursor.DialReplicatedCluster(s, precursor.ClusterConfig{
				Timeout: dc.Timeout, WrapConn: dc.WrapConn, Tracer: dc.Tracer,
				ClusterTracer: clsTr, DisableAutoRepair: true,
			})
		})
	}},
}

const ctxKey = "ctx-key"

// ctxOp runs one operation on ctxKey and returns its error — for a batch,
// the batch-level error or else the per-op ones (the cluster reports a
// refused batch op by op).
type ctxOp func(ctx context.Context, kv cluster.Backend) error

// ctxOps is the table's operation axis.
var ctxOps = []struct {
	name string
	do   ctxOp
}{
	{"put", func(ctx context.Context, kv cluster.Backend) error {
		return kv.PutContext(ctx, ctxKey, []byte("v2"))
	}},
	{"get", func(ctx context.Context, kv cluster.Backend) error {
		_, err := kv.GetContext(ctx, ctxKey)
		return err
	}},
	{"batch", func(ctx context.Context, kv cluster.Backend) error {
		res, err := kv.BatchContext(ctx, []precursor.BatchOp{
			{Kind: precursor.BatchPut, Key: ctxKey, Value: []byte("v3")},
			{Kind: precursor.BatchGet, Key: ctxKey},
		})
		for i := range res {
			err = errors.Join(err, res[i].Err)
		}
		return err
	}},
	{"delete", func(ctx context.Context, kv cluster.Backend) error {
		return kv.DeleteContext(ctx, ctxKey)
	}},
}

// forEachCtxCase runs check once per stack × op, each on a freshly built
// stack holding ctxKey (a stalled or timed-out stack is not reusable: its
// breakers are open).
func forEachCtxCase(t *testing.T, o ctxStackOpts, check func(t *testing.T, s *ctxStack, do ctxOp)) {
	if testing.Short() {
		t.Skip("ctx contract table skipped in -short mode")
	}
	for _, st := range ctxStacks {
		for _, op := range ctxOps {
			t.Run(st.name+"/"+op.name, func(t *testing.T) {
				s := st.build(t, o)
				if err := s.kv.PutContext(context.Background(), ctxKey, []byte("v1")); err != nil {
					t.Fatalf("preload: %v", err)
				}
				check(t, s, op.do)
			})
		}
	}
}

// TestCtxContractSpentOrCancelled: a ctx whose deadline has passed, or
// that was cancelled, fails with ErrTimeout (joined with the ctx's own
// error) before anything is sent: no server sees the operation, so it is
// never unconfirmed — and the stack is untouched, serving the next
// operation normally.
func TestCtxContractSpentOrCancelled(t *testing.T) {
	forEachCtxCase(t, ctxStackOpts{timeout: 5 * time.Second}, func(t *testing.T, s *ctxStack, do ctxOp) {
		spent, cancelSpent := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancelSpent()
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		for _, c := range []struct {
			name  string
			ctx   context.Context
			cause error
		}{{"spent", spent, context.DeadlineExceeded}, {"cancelled", cancelled, context.Canceled}} {
			before := s.reached()
			start := time.Now()
			err := do(c.ctx, s.kv)
			if !errors.Is(err, precursor.ErrTimeout) || !errors.Is(err, c.cause) {
				t.Errorf("%s ctx: %v, want ErrTimeout joined with %v", c.name, err, c.cause)
			}
			if errors.Is(err, precursor.ErrUnconfirmed) {
				t.Errorf("%s ctx: %v — nothing was sent, nothing can be unconfirmed", c.name, err)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("%s ctx: failed after %v, want at once", c.name, d)
			}
			if after := s.reached(); after != before {
				t.Errorf("%s ctx: %d operations reached a server", c.name, after-before)
			}
		}
		if err := do(context.Background(), s.kv); err != nil {
			t.Errorf("the same operation under a live ctx afterwards: %v", err)
		}
	})
}

// TestCtxContractDeadlineBounds: with no server answering, an operation
// ends at min(now+Timeout, ctx deadline) — a shorter ctx deadline bounds
// it (read-retry slices and the cluster's failover walk included: they
// divide the budget, they do not restart it), and a longer one does not
// extend the configured Timeout.
func TestCtxContractDeadlineBounds(t *testing.T) {
	for _, c := range []struct {
		name         string
		timeout, ctx time.Duration
		atMost       time.Duration
	}{
		{"ctx shorter than Timeout", 20 * time.Second, 100 * time.Millisecond, 5 * time.Second},
		{"ctx longer than Timeout", 150 * time.Millisecond, 30 * time.Second, 10 * time.Second},
	} {
		t.Run(c.name, func(t *testing.T) {
			forEachCtxCase(t, ctxStackOpts{timeout: c.timeout}, func(t *testing.T, s *ctxStack, do ctxOp) {
				s.stall()
				ctx, cancel := context.WithTimeout(context.Background(), c.ctx)
				defer cancel()
				start := time.Now()
				err := do(ctx, s.kv)
				if !errors.Is(err, precursor.ErrTimeout) {
					t.Errorf("stalled operation: %v, want ErrTimeout", err)
				}
				want := min(c.timeout, c.ctx)
				if d := time.Since(start); d < want/2 || d > c.atMost {
					t.Errorf("stalled operation ended after %v, want about %v (and under %v)", d, want, c.atMost)
				}
			})
		})
	}
}

// TestCtxContractTraceStitches: a span ref carried by the ctx
// (precursor.WithSpan) puts every hop's spans under the caller's trace
// id — with client-side tracers each hop parents the next, and without
// them the caller's ref is forwarded verbatim, so the server's span is a
// direct child of the caller's.
func TestCtxContractTraceStitches(t *testing.T) {
	for _, tracers := range []bool{true, false} {
		t.Run(fmt.Sprintf("client-side tracers=%v", tracers), func(t *testing.T) {
			if testing.Short() {
				t.Skip("ctx contract table skipped in -short mode")
			}
			for _, st := range ctxStacks {
				t.Run(st.name, func(t *testing.T) {
					s := st.build(t, ctxStackOpts{timeout: 5 * time.Second, tracers: tracers})
					root := newTracer(precursor.SideClient).Start(0, "caller")
					ref := root.Ref()
					ctx := precursor.WithSpan(context.Background(), ref)
					for _, op := range ctxOps {
						if err := op.do(ctx, s.kv); err != nil {
							t.Fatalf("%s: %v", op.name, err)
						}
					}
					// A quorum write returns at quorum; the last replica's
					// spans and the cluster op's own trace land just after.
					var hops map[string][]hopTrace
					deadline := time.Now().Add(5 * time.Second)
					for done := false; !done && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
						hops = s.hops()
						done = true
						for _, traces := range hops {
							done = done && len(traces) >= len(ctxOps)
						}
					}
					for hop, traces := range hops {
						if len(traces) < len(ctxOps) {
							t.Errorf("%s recorded %d traces for %d operations", hop, len(traces), len(ctxOps))
						}
						for _, tr := range traces {
							if tr.id != ref.TraceID {
								t.Errorf("%s trace id %x, want the caller's %x", hop, tr.id, ref.TraceID)
							}
							if direct := tr.parent == ref.SpanID; hop == "server" && direct == tracers {
								t.Errorf("server span's parent %x, the caller's span %x: direct child = %v, want %v",
									tr.parent, ref.SpanID, direct, !tracers)
							}
						}
					}
				})
			}
		})
	}
}

// TestOneCallShape guards the API the ctx carrier bought: the three
// client-stack types offer Put / Get / Delete / Batch and their …Context
// forms and no variant families, and each is a cluster.Backend — so any
// of them can stand where another does.
func TestOneCallShape(t *testing.T) {
	banned := regexp.MustCompile(`Traced$|Deadline|^(Put|Get|Delete)Batch$`)
	backend := reflect.TypeOf((*cluster.Backend)(nil)).Elem()
	for _, v := range []any{(*precursor.Client)(nil), (*precursor.Pool)(nil), (*precursor.ClusterClient)(nil)} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; banned.MatchString(name) {
				t.Errorf("%v has method %s: deadline and trace travel in the ctx of the …Context form", typ, name)
			}
		}
		if !typ.Implements(backend) {
			t.Errorf("%v does not implement cluster.Backend", typ)
		}
	}
}
