package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"precursor/internal/audit"
	"precursor/internal/core"
	"precursor/internal/heat"
	"precursor/internal/hist"
	"precursor/internal/obs"
	"precursor/internal/overload"
)

// Backend is one shard's key-value connection, driven through the one
// call shape every layer of the client stack offers: the ctx carries the
// caller's deadline and parent span down to the wire (PROTOCOL.md §9).
// *core.Client satisfies it, as does the root package's *precursor.Pool
// (the usual choice, so many goroutines can drive the cluster client
// concurrently) — and so does *Client itself.
type Backend interface {
	PutContext(ctx context.Context, key string, value []byte) error
	GetContext(ctx context.Context, key string) ([]byte, error)
	DeleteContext(ctx context.Context, key string) error
	// BatchContext executes ops in order and returns per-op results; the
	// error is batch-level (transport, timeout). See core.Client.Batch.
	BatchContext(ctx context.Context, ops []core.BatchOp) ([]core.BatchResult, error)
	Close() error
}

// Shard names one cluster member and its connection.
type Shard struct {
	// Name identifies the shard on the ring. Placement depends only on
	// the set of names, so every client must use the same ones (the root
	// package uses the shard's listen address).
	Name    string
	Backend Backend
}

// ReplicaGroup is one ring position backed by R replicas. Every replica
// stores the group's full key range; the client fans writes out to all of
// them and reads from the fastest healthy one. Group names take the ring
// position (placement depends only on the set of group names); replica
// names identify the individual servers for health, stats and repair.
type ReplicaGroup struct {
	// Name is the group's ring identity. Every client must derive the
	// same name for the same membership (the root package joins the
	// sorted replica addresses).
	Name string
	// Replicas are the group members, each an independently attested
	// single-node server.
	Replicas []Shard
}

// Options tunes a cluster Client.
type Options struct {
	// VirtualNodes per shard on the ring (DefaultVirtualNodes if <= 0).
	VirtualNodes int
	// RetryBackoff is the base delay before a failed shard is probed
	// again (default 250ms). The delay doubles per consecutive failure up
	// to MaxBackoff (default 8s).
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// IsShardFailure classifies an operation error as a shard outage
	// (trips the breaker) rather than a data-level error like not-found.
	// Default: core.ErrClosed or core.ErrTimeout.
	IsShardFailure func(error) bool
	// WriteQuorum is the number of replica acks a write needs in a
	// replicated group (0 = majority). Clamped to each group's size.
	WriteQuorum int
	// OpenRepair opens an anti-entropy repair session against the named
	// replica (the root package dials core.ConnectRepair). Nil restricts
	// repair to journal replay: a replica that lost state entirely
	// cannot rejoin without a snapshot source.
	OpenRepair func(replica string) (RepairSession, error)
	// RepairInterval is the cadence of the background probe/repair scan
	// over replicated groups (default 250ms).
	RepairInterval time.Duration
	// JournalCap bounds each replica's missed-write journal (default
	// 4096). Overflow discards the journal and forces a full snapshot
	// sync instead — never a silent gap.
	JournalCap int
	// DisableAutoRepair turns the background probe/repair goroutine off
	// (deterministic tests drive repair via short RepairInterval instead;
	// production leaves this false).
	DisableAutoRepair bool
	// Audit, when set, receives a tamper-evident record of the client's
	// replication safeguards firing: breaker trips, quorum shortfalls,
	// Byzantine read failovers, repair anomalies. Share the servers' log
	// to interleave client- and server-side detections on one chain, or
	// give the client its own. Nil disables (one branch per event).
	Audit *audit.Log
	// Tracer, when set, records replicated operations as traces with
	// per-replica child spans (obs.CliReplica, annotated with the group
	// and replica names) and receives NoteFault annotations on failover
	// and repair events. A SideClient tracer; nil disables.
	Tracer *obs.Tracer
	// Heat, when set, accumulates routing-path workload heat: which
	// hashed keys this client sends where, ring-range load and op
	// rates, mirroring the server-side apply-path collector so client
	// and shard views of skew can be compared. Nil disables (one
	// branch per op).
	Heat *heat.Collector
	// HedgeReads enables budget-guarded read hedging in replicated
	// groups: when the fastest replica has not answered within the hedge
	// delay (a p95 estimate of its smoothed latency, floored at
	// HedgeMinDelay), the read is also issued to the next healthy
	// replica and the first sealed-valid reply wins; the loser's late
	// result is discarded. Every hedge spends a token from Budget, so
	// hedging can never more than marginally amplify read load.
	HedgeReads bool
	// HedgeMinDelay floors the hedge delay (default 1ms) so
	// sub-millisecond latency estimates do not hedge every read.
	HedgeMinDelay time.Duration
	// Budget is the token bucket that admission-control retries and
	// hedged reads spend from; successful operations earn tokens back
	// at overload.DefaultBudgetRatio, bounding total amplification. Nil
	// installs a per-client default bucket.
	Budget *overload.RetryBudget
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.VirtualNodes <= 0 {
		out.VirtualNodes = DefaultVirtualNodes
	}
	if out.RetryBackoff <= 0 {
		out.RetryBackoff = 250 * time.Millisecond
	}
	if out.MaxBackoff <= 0 {
		out.MaxBackoff = 8 * time.Second
	}
	if out.IsShardFailure == nil {
		out.IsShardFailure = func(err error) bool {
			return errors.Is(err, core.ErrClosed) || errors.Is(err, core.ErrTimeout)
		}
	}
	if out.RepairInterval <= 0 {
		out.RepairInterval = 250 * time.Millisecond
	}
	if out.JournalCap <= 0 {
		out.JournalCap = 4096
	}
	if out.HedgeMinDelay <= 0 {
		out.HedgeMinDelay = time.Millisecond
	}
	if out.Budget == nil {
		out.Budget = overload.NewRetryBudget(0, 0)
	}
	return out
}

// Client routes operations across shards by consistent key hash.
//
// Each ring position is a replica group (size 1 unless built with
// NewReplicated). Within a group every replica has an independent health
// breaker. Single-replica groups keep the original semantics: when the
// one replica's breaker is open, operations fail immediately with a
// ShardError wrapping ErrShardDown until the retry backoff elapses and a
// probe is let through. Replicated groups never fail fast while any
// replica survives: writes fan out to all live replicas and succeed on a
// quorum of acks, reads fail over from the fastest replica to the next,
// and a recovering replica is repaired (snapshot + delta + journal
// replay) before it serves again.
//
// Client is safe for concurrent use when its Backends are (use pools).
type Client struct {
	ring   *Ring
	groups map[string]*groupState   // by group name (ring identity)
	reps   map[string]*replicaState // by replica name
	order  []string                 // group names, ring order
	opts   Options
	closed atomic.Bool
	stopCh chan struct{}
	wg     sync.WaitGroup

	traceSlot atomic.Uint32 // stripes tracer histogram recording

	failovers        atomic.Uint64 // reads served by a non-preferred replica
	quorumShortfalls atomic.Uint64 // writes that missed their quorum
	repairsDone      atomic.Uint64 // completed replica repairs
	repairFailures   atomic.Uint64 // aborted repair attempts
	hedgesLaunched   atomic.Uint64 // secondary reads issued by the hedge timer
	hedgesWon        atomic.Uint64 // hedged reads where the secondary answered first
	hedgesDenied     atomic.Uint64 // hedge attempts refused by the retry budget
}

// groupState is one ring position's replica set.
type groupState struct {
	name     string
	replicas []*replicaState
	quorum   int // write quorum (1 for single-replica groups)
	// repairMu admits one repair run per group at a time (see runRepair).
	repairMu sync.Mutex
	// fanFree holds the group's idle fan-out records (see quorumWrite).
	fanMu   sync.Mutex
	fanFree []*fanout
}

func (g *groupState) single() bool { return len(g.replicas) == 1 }

// replicaState is one replica's connection plus health and counters.
//
// The breaker is epoch-based so slow, overlapping operations cannot
// flap it: admit hands each operation a token stamped with the current
// epoch, every state transition bumps the epoch, and a result is only
// allowed to transition the breaker if its token is still current.
// Without this, an operation admitted while the shard was healthy but
// completing after it tripped would close (on success) or deepen (on
// failure) the breaker it knows nothing about.
//
// On top of the breaker, a replica in an R>1 group moves through three
// states: up (serving), down (breaker open), repairing (breaker closed
// again but excluded from reads and live writes until its journal and —
// after state loss — a donor snapshot have been replayed). Writes that
// cannot go to a replica are journaled so repair knows what to re-sync.
type replicaState struct {
	name    string
	backend Backend
	group   *groupState
	// work hands a fan-out to a parked writer goroutine of this replica;
	// unbuffered, so a send succeeds only if one is waiting.
	work chan *fanout

	puts, gets, deletes atomic.Uint64
	errors              atomic.Uint64
	missed              atomic.Uint64 // writes journaled/skipped while not up (replica lag)
	repairs             atomic.Uint64 // completed repairs of this replica

	// lat records whole-operation latency against this shard as seen by
	// this client (queueing, transport and retries included). latIdx
	// rotates recordings across the sharded histogram's stripes, since
	// many goroutines may drive one shard through a pool.
	lat    *hist.Sharded
	latIdx atomic.Uint32
	// ewma is a smoothed operation latency in nanoseconds, used to order
	// replicated reads fastest-first.
	ewma atomic.Int64

	mu       sync.Mutex
	epoch    uint64 // bumped on every trip/close transition
	down     bool
	failures int       // consecutive shard-level failures
	retryAt  time.Time // next probe admission when down
	probing  bool      // a probe op is in flight

	repairing     bool     // R>1: serving suspended until repair completes
	needsFullSync bool     // repair must adopt a donor snapshot first
	journal       []string // keys written while this replica was not up
	journalDrop   bool     // journal overflowed; forces needsFullSync
	repairBusy    bool     // a repair run is in flight
}

// admitToken records the breaker state an operation was admitted under.
type admitToken struct {
	epoch uint64
	probe bool // this op is the single half-open probe
}

// New builds a cluster client over the given shards, one replica per
// ring position (the original unreplicated layout).
func New(shards []Shard, opts Options) (*Client, error) {
	groups := make([]ReplicaGroup, len(shards))
	for i, s := range shards {
		groups[i] = ReplicaGroup{Name: s.Name, Replicas: []Shard{s}}
	}
	return NewReplicated(groups, opts)
}

// NewReplicated builds a cluster client over replica groups. Group names
// take ring positions; writes to a group fan out to its replicas and
// need opts.WriteQuorum acks (majority by default); reads are served by
// the fastest healthy replica with transparent failover. Unless
// opts.DisableAutoRepair is set, a background goroutine probes downed
// replicas and repairs recovering ones (donor snapshot + delta + journal
// replay) before they rejoin.
func NewReplicated(groups []ReplicaGroup, opts Options) (*Client, error) {
	if len(groups) == 0 {
		return nil, ErrNoShards
	}
	o := opts.withDefaults()
	c := &Client{
		groups: make(map[string]*groupState, len(groups)),
		reps:   make(map[string]*replicaState),
		opts:   o,
		stopCh: make(chan struct{}),
	}
	names := make([]string, len(groups))
	replicated := false
	for i, g := range groups {
		if len(g.Replicas) == 0 {
			return nil, fmt.Errorf("precursor/cluster: group %q has no replicas", g.Name)
		}
		gs := &groupState{name: g.Name}
		for _, r := range g.Replicas {
			if _, dup := c.reps[r.Name]; dup {
				return nil, fmt.Errorf("precursor/cluster: duplicate replica name %q", r.Name)
			}
			rep := &replicaState{name: r.Name, backend: r.Backend, group: gs, lat: hist.NewSharded(0), work: make(chan *fanout)}
			gs.replicas = append(gs.replicas, rep)
			c.reps[r.Name] = rep
		}
		gs.quorum = quorumFor(len(gs.replicas), o.WriteQuorum)
		if len(gs.replicas) > 1 {
			replicated = true
		}
		if _, dup := c.groups[g.Name]; dup {
			return nil, fmt.Errorf("precursor/cluster: duplicate group name %q", g.Name)
		}
		c.groups[g.Name] = gs
		names[i] = g.Name
	}
	c.ring = NewRing(names, o.VirtualNodes)
	c.order = c.ring.Shards()
	if replicated && !o.DisableAutoRepair {
		c.wg.Add(1)
		go c.repairLoop()
	}
	return c, nil
}

// quorumFor resolves the effective write quorum for a group of size r.
func quorumFor(r, requested int) int {
	w := requested
	if w <= 0 {
		w = r/2 + 1 // majority
	}
	if w > r {
		w = r
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Ring exposes the placement ring (for metrics and tooling).
func (c *Client) Ring() *Ring { return c.ring }

// ShardFor returns the name of the replica group that owns key.
func (c *Client) ShardFor(key string) string { return c.ring.Lookup(key) }

// minBudget is the minimum remaining ctx budget worth sending a replica
// anything for: below this, an operation is resolved ErrTimeout locally —
// doomed work never reaches a replica.
const minBudget = time.Millisecond

// spent reports a ctx with no budget left worth spending — cancelled,
// past its deadline, or within minBudget of it — as core.ErrTimeout
// joined with the ctx's error. The cluster consults it before it admits
// a replica and between failover and hedge steps, so whatever it refuses
// was never sent and is never unconfirmed.
func spent(ctx context.Context) error {
	if d, ok := ctx.Deadline(); ok && time.Until(d) < minBudget {
		return fmt.Errorf("%w: %w", core.ErrTimeout, context.DeadlineExceeded)
	}
	return core.CtxErr(ctx)
}

// groupFor resolves the owning replica group, checking liveness and that
// ctx still has budget to spend: a spent ctx fails here, before any replica
// is admitted, so no breaker is charged for the caller's deadline.
func (c *Client) groupFor(ctx context.Context, key string) (*groupState, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	if err := spent(ctx); err != nil {
		return nil, err
	}
	g := c.groups[c.ring.Lookup(key)]
	if g == nil {
		return nil, ErrNoShards
	}
	return g, nil
}

// Put stores value under key on the owning group: directly on a
// single-replica group, quorum-fanned-out on a replicated one.
func (c *Client) Put(key string, value []byte) error {
	return c.PutContext(context.Background(), key, value)
}

// PutContext is Put under ctx: its deadline bounds every replica's
// attempt, and the span ref it carries (obs.WithRef) becomes the parent
// of the cluster-level span, which in turn parents every per-replica
// span it fans out to, across process boundaries. Without a cluster
// tracer the caller's ctx is passed through untouched.
func (c *Client) PutContext(ctx context.Context, key string, value []byte) error {
	g, err := c.groupFor(ctx, key)
	if err != nil {
		return err
	}
	c.opts.Heat.Record(heat.KindPut, heat.HashKey(key), len(value), 0)
	if g.single() {
		return c.singleOp(ctx, g.replicas[0], func(ctx context.Context, b Backend) error { return b.PutContext(ctx, key, value) },
			func(r *replicaState) { r.puts.Add(1) })
	}
	return c.quorumWrite(ctx, g, "put", key, value)
}

// Get fetches and verifies the value for key from the owning group's
// fastest healthy replica, failing over on replica outages and on MAC
// failures (the integrity backstop: a Byzantine replica can corrupt its
// copy, but the client-side MAC catches it and the read moves on).
func (c *Client) Get(key string) ([]byte, error) {
	return c.GetContext(context.Background(), key)
}

// GetContext is Get under ctx (see PutContext): a ctx that runs out
// mid-read stops the failover walk and launches no hedge.
func (c *Client) GetContext(ctx context.Context, key string) ([]byte, error) {
	g, err := c.groupFor(ctx, key)
	if err != nil {
		return nil, err
	}
	c.opts.Heat.Record(heat.KindGet, heat.HashKey(key), 0, 0)
	var v []byte
	if g.single() {
		err = c.singleOp(ctx, g.replicas[0], func(ctx context.Context, b Backend) (err error) {
			v, err = b.GetContext(ctx, key)
			return err
		}, func(r *replicaState) { r.gets.Add(1) })
	} else {
		v, err = c.replicatedGet(ctx, g, key)
	}
	c.opts.Heat.AddBytesOut(len(v))
	return v, err
}

// Delete removes key from the owning group (quorum-acked when
// replicated; a replica reporting not-found counts as an ack).
func (c *Client) Delete(key string) error {
	return c.DeleteContext(context.Background(), key)
}

// DeleteContext is Delete under ctx (see PutContext).
func (c *Client) DeleteContext(ctx context.Context, key string) error {
	g, err := c.groupFor(ctx, key)
	if err != nil {
		return err
	}
	c.opts.Heat.Record(heat.KindDelete, heat.HashKey(key), 0, 0)
	if g.single() {
		return c.singleOp(ctx, g.replicas[0], func(ctx context.Context, b Backend) error { return b.DeleteContext(ctx, key) },
			func(r *replicaState) { r.deletes.Add(1) })
	}
	return c.quorumWrite(ctx, g, "delete", key, nil)
}

// singleOp runs one operation against a single-replica group with the
// original breaker semantics.
func (c *Client) singleOp(ctx context.Context, rep *replicaState, do func(context.Context, Backend) error, tally func(*replicaState)) error {
	tok, err := c.admitLegacy(rep)
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = do(ctx, rep.backend)
	rep.recordLatency(t0)
	if err = c.observe(rep, tok, err, false, ""); err == nil {
		tally(rep)
	}
	return err
}

// admitLegacy consults a single-replica group's breaker, counting
// fail-fast rejections as errors like the original client did.
func (c *Client) admitLegacy(rep *replicaState) (admitToken, error) {
	tok, err := rep.admit()
	if err != nil {
		rep.errors.Add(1)
		return admitToken{}, err
	}
	return tok, nil
}

// fanout is one quorum write in flight: a pooled record (per group, so its
// arrays stay sized by the group) that the caller fills, the per-replica
// writer goroutines tally into, and whoever lets go of it last recycles.
type fanout struct {
	c     *Client
	g     *groupState
	ctx   context.Context // carries the quorum op's span ref to every replica attempt
	op    *obs.Op         // single-owner: touched under mu, finished by the last holder
	kind  string          // "put" or "delete": the trace's kind, and which call a writer makes
	key   string
	value []byte          // the caller's slice: a straggler still reads it after the quorum
	reps  []*replicaState // live replicas and the tokens they were admitted under
	toks  []admitToken
	done  chan error   // the write's outcome, sent once: at quorum, or with the last result
	refs  atomic.Int32 // writers still running, plus the caller until it has read done

	mu                      sync.Mutex
	landed, acks, notFounds int
	firstFail, firstData    error
	resolved                bool
}

// quorumWrite fans a write out to every live replica of g concurrently
// and succeeds once quorum acks arrive; stragglers (e.g. an attempt stuck
// in a dead pool's acquire wait) report in the background without stalling
// the caller. Replicas that are down or repairing journal the key instead
// (repair re-syncs it later — journal entries are dirty markers, not
// acks). Partial application joins core.ErrUnconfirmed onto the failure,
// mirroring the single-node write-outcome semantics.
func (c *Client) quorumWrite(ctx context.Context, g *groupState, kind, key string, value []byte) error {
	g.fanMu.Lock()
	var f *fanout
	if n := len(g.fanFree); n > 0 {
		f, g.fanFree = g.fanFree[n-1], g.fanFree[:n-1]
	} else {
		f = &fanout{c: c, g: g, done: make(chan error, 1)} // reps and toks grow to the group's size on first use
	}
	g.fanMu.Unlock()
	f.refs.Store(1) // the caller's hold
	for _, rep := range g.replicas {
		if tok, ok := rep.admitWrite(c.opts.JournalCap, key); ok {
			f.reps, f.toks = append(f.reps, rep), append(f.toks, tok)
		}
	}
	if len(f.reps) == 0 {
		f.release()
		c.noteQuorumShortfall(g, 0, "no live replicas")
		return &ShardError{Shard: g.name, Err: ErrShardDown}
	}
	f.op = c.opts.Tracer.Start(int(c.traceSlot.Add(1)), kind)
	f.op.SetGroup(g.name)
	f.ctx, f.kind, f.key, f.value = f.op.Continue(ctx), kind, key, value
	f.refs.Add(int32(len(f.reps))) // and one per writer
	for _, rep := range f.reps {
		// Hand the write to a parked writer of this replica, else start one:
		// a replica runs as many writes at once as it is asked to, so a
		// straggler delays nobody, and a steady load starts no goroutine.
		select {
		case rep.work <- f:
		default:
			go rep.writer(c.stopCh, f)
		}
	}
	err := <-f.done
	f.release()
	return err
}

// writer runs this replica's share of one fan-out after another, parking
// between them until the client closes.
func (s *replicaState) writer(stop <-chan struct{}, f *fanout) {
	for {
		f.run(s)
		select {
		case f = <-s.work:
		case <-stop:
			return
		}
	}
}

// run performs the write on rep — breaker observation included — and
// tallies it: the result that completes the quorum wakes the caller, the
// last one settles a shortfall.
func (f *fanout) run(rep *replicaState) {
	c, isDelete := f.c, f.kind == "delete"
	s0, t0 := f.op.Now(), time.Now()
	var err error
	if isDelete {
		err = rep.backend.DeleteContext(f.ctx, f.key)
	} else {
		err = rep.backend.PutContext(f.ctx, f.key, f.value)
	}
	rep.recordLatency(t0)
	rep.noteLatency(time.Since(t0))
	err = c.observe(rep, f.toks[slices.Index(f.reps, rep)], err, true, f.key)
	// For a delete, a replica that never had the key is at the desired end
	// state, so not-found counts toward the quorum.
	notFound := isDelete && errors.Is(err, core.ErrNotFound)
	shardLevel := err != nil && (c.opts.IsShardFailure(err) || errors.Is(err, core.ErrUnconfirmed))
	end := f.op.Now()

	f.mu.Lock()
	f.op.ReplicaSpanAt(rep.name, s0, end)
	switch {
	case err == nil && isDelete:
		rep.deletes.Add(1)
		f.acks++
	case err == nil:
		rep.puts.Add(1)
		f.acks++
	case notFound:
		f.acks++
		f.notFounds++
	case shardLevel && f.firstFail == nil:
		f.firstFail = err
	case !shardLevel && f.firstData == nil:
		f.firstData = err
	}
	f.landed++
	switch {
	case f.resolved:
	case f.acks >= f.g.quorum && isDelete && f.acks == f.notFounds:
		f.resolve(core.ErrNotFound)
	case f.acks >= f.g.quorum:
		f.resolve(nil)
	case f.landed == len(f.reps):
		f.resolve(f.shortfall())
	}
	f.mu.Unlock()
	f.release()
}

// resolve settles the write's outcome and wakes the caller.
func (f *fanout) resolve(err error) {
	f.resolved = true
	f.op.SetError(err)
	f.done <- err
}

// shortfall is the outcome of a write whose every result is in and that
// missed its quorum.
func (f *fanout) shortfall() error {
	f.c.noteQuorumShortfall(f.g, f.acks, f.kind)
	if f.acks == 0 && f.firstFail == nil && f.firstData != nil {
		// Every replica rejected the operation deterministically (e.g.
		// oversized value): a clean data error, nothing was applied.
		return f.firstData
	}
	cause := cmp.Or(f.firstFail, f.firstData, error(ErrShardDown))
	if f.acks > 0 && !errors.Is(cause, core.ErrUnconfirmed) {
		// Some replicas applied the write and the group is below quorum:
		// the outcome is indeterminate until repair reconverges.
		cause = fmt.Errorf("%w; %w", cause, core.ErrUnconfirmed)
	}
	return &ShardError{Shard: f.g.name, Err: fmt.Errorf("%w (%d/%d acks): %w", ErrNoQuorum, f.acks, f.g.quorum, cause)}
}

// release drops one hold on the record. The last one finishes the trace —
// every replica's span is in — and returns the record to its group's free
// list, emptied of everything the write lent it.
func (f *fanout) release() {
	if f.refs.Add(-1) != 0 {
		return
	}
	f.op.Finish()
	g := f.g
	*f = fanout{c: f.c, g: g, reps: f.reps[:0], toks: f.toks[:0], done: f.done}
	g.fanMu.Lock()
	g.fanFree = append(g.fanFree, f)
	g.fanMu.Unlock()
}

// noteQuorumShortfall counts, audits and trace-annotates one replicated
// write that missed its quorum.
func (c *Client) noteQuorumShortfall(g *groupState, acks int, detail string) {
	c.quorumShortfalls.Add(1)
	c.opts.Audit.Add(audit.Record{Kind: audit.KindQuorumShortfall, Actor: g.name,
		Detail: fmt.Sprintf("%s: %d/%d acks", detail, acks, g.quorum)})
	c.opts.Tracer.NoteFault(fmt.Sprintf("quorum shortfall group=%s %d/%d acks", g.name, acks, g.quorum))
}

// replicatedGet serves a read from the fastest healthy replica, failing
// over to the next on shard-level errors and on payload-MAC failures.
// Not-found from a healthy replica is authoritative (an up replica has
// every acked write) and is returned immediately.
func (c *Client) replicatedGet(ctx context.Context, g *groupState, key string) (val []byte, retErr error) {
	op := c.opts.Tracer.Start(int(c.traceSlot.Add(1)), "get")
	op.SetGroup(g.name)
	ctx = op.Continue(ctx) // primary, hedge and failover attempts share the op's trace
	defer func() {
		op.SetError(retErr)
		op.Finish()
	}()
	var ups [readOrderStack]*replicaState
	order := g.readOrder(ups[:0])
	probeFallback := len(order) == 0
	if probeFallback {
		// No replica is up. Try breaker probes on downed replicas so a
		// read-only workload can still resurrect the group.
		order = g.replicas
	}
	var lastErr error
	attempted := 0
	hedgeable := c.opts.HedgeReads && !probeFallback && len(order) >= 2
	if hedgeable {
		v, err, tried, done := c.hedgedGet(ctx, g, op, order, key)
		if done {
			return v, err
		}
		// Every hedged attempt failed at the shard level (or the primary
		// could not be admitted); fall through to the sequential walk —
		// tripped replicas will be skipped by their breakers.
		attempted += tried
		if err != nil {
			lastErr = err
		}
	}
	for _, rep := range order {
		if attempted > 0 && spent(ctx) != nil {
			break // the caller's budget is gone: stop failing over
		}
		var tok admitToken
		var ok bool
		if probeFallback {
			tok, ok = rep.admitProbe()
		} else {
			tok, ok = rep.admitRead()
		}
		if !ok {
			continue
		}
		attempted++
		s0 := op.Now()
		t0 := time.Now()
		v, err := rep.backend.GetContext(ctx, key)
		d := time.Since(t0)
		rep.recordLatency(t0)
		err = c.observe(rep, tok, err, true, "")
		op.ReplicaSpanAt(rep.name, s0, op.Now())
		if err == nil {
			rep.noteLatency(d)
			rep.gets.Add(1)
			c.opts.Budget.OnSuccess()
			if attempted > 1 {
				c.failovers.Add(1)
				c.opts.Audit.Add(audit.Record{Kind: audit.KindReadFailover, Actor: rep.name,
					Detail: fmt.Sprintf("group %s: read served by attempt %d", g.name, attempted)})
				c.opts.Tracer.NoteFault(fmt.Sprintf("read failover group=%s served-by=%s attempt=%d", g.name, rep.name, attempted))
			}
			return v, nil
		}
		if errors.Is(err, core.ErrIntegrity) {
			// Integrity backstop: this replica returned a payload whose
			// MAC does not verify — treat like an outage and fail over.
			c.opts.Audit.Add(audit.Record{Kind: audit.KindByzantineFailover, Actor: rep.name,
				Detail: fmt.Sprintf("group %s: payload MAC failed verification", g.name)})
			c.opts.Tracer.NoteFault(fmt.Sprintf("byzantine failover group=%s replica=%s", g.name, rep.name))
			lastErr = err
			continue
		}
		if !c.opts.IsShardFailure(err) {
			return nil, err // data-level and authoritative (e.g. not-found)
		}
		lastErr = err
	}
	if attempted == 0 {
		for _, rep := range g.replicas {
			rep.errors.Add(1)
		}
		return nil, &ShardError{Shard: g.name, Err: ErrShardDown}
	}
	return nil, lastErr
}

// hedgedGet races the fastest replica against a budget-guarded hedge:
// the read is issued to order[0] immediately, and if no reply has
// arrived within hedgeDelay, a second copy goes to the next admittable
// replica. The first sealed-valid reply wins; the loser's late result
// is discarded (reads are idempotent, so a duplicate apply is
// harmless). Returns done=false when the caller should fall back to
// the sequential walk: the primary was not admittable, or every
// launched attempt failed at the shard level (tried reports how many
// attempts ran, err the last shard-level failure).
func (c *Client) hedgedGet(ctx context.Context, g *groupState, op *obs.Op, order []*replicaState, key string) (val []byte, err error, tried int, done bool) {
	primary := order[0]
	ptok, ok := primary.admitRead()
	if !ok {
		return nil, nil, 0, false
	}
	type hedgeReply struct {
		rep   *replicaState
		v     []byte
		err   error
		d     time.Duration
		start int64
	}
	// Buffered to the maximum attempt count so a losing straggler's send
	// never blocks: its reply is simply dropped with the channel.
	replies := make(chan hedgeReply, 2)
	launch := func(rep *replicaState, tok admitToken) {
		s0 := op.Now()
		t0 := time.Now()
		v, gerr := rep.backend.GetContext(ctx, key)
		d := time.Since(t0)
		rep.recordLatency(t0)
		gerr = c.observe(rep, tok, gerr, true, "")
		replies <- hedgeReply{rep: rep, v: v, err: gerr, d: d, start: s0}
	}
	go launch(primary, ptok)
	launched := 1
	timer := time.NewTimer(c.hedgeDelay(primary))
	defer timer.Stop()
	var lastErr error
	for received := 0; received < launched; {
		select {
		case r := <-replies:
			received++
			op.ReplicaSpanAt(r.rep.name, r.start, op.Now())
			switch {
			case r.err == nil:
				r.rep.noteLatency(r.d)
				r.rep.gets.Add(1)
				c.opts.Budget.OnSuccess()
				if r.rep != primary {
					c.hedgesWon.Add(1)
					c.opts.Tracer.NoteFault(fmt.Sprintf("hedge won group=%s replica=%s", g.name, r.rep.name))
				}
				return r.v, nil, launched, true
			case errors.Is(r.err, core.ErrIntegrity):
				// Integrity backstop, as in the sequential walk: treat the
				// replica as Byzantine and let the race (or the fallback
				// walk) serve the read elsewhere.
				c.opts.Audit.Add(audit.Record{Kind: audit.KindByzantineFailover, Actor: r.rep.name,
					Detail: fmt.Sprintf("group %s: payload MAC failed verification", g.name)})
				c.opts.Tracer.NoteFault(fmt.Sprintf("byzantine failover group=%s replica=%s", g.name, r.rep.name))
				lastErr = r.err
			case !c.opts.IsShardFailure(r.err):
				// Data-level and authoritative (e.g. not-found from a
				// healthy replica) — the race is decided.
				return nil, r.err, launched, true
			default:
				lastErr = r.err
			}
		case <-timer.C:
			if launched > 1 || spent(ctx) != nil {
				continue
			}
			if !c.opts.Budget.TrySpend() {
				c.hedgesDenied.Add(1)
				continue
			}
			for _, rep := range order[1:] {
				if tok, hok := rep.admitRead(); hok {
					launched++
					c.hedgesLaunched.Add(1)
					c.opts.Tracer.NoteFault(fmt.Sprintf("hedge launched group=%s replica=%s", g.name, rep.name))
					go launch(rep, tok)
					break
				}
			}
		}
	}
	return nil, lastErr, launched, false
}

// hedgeDelay estimates the primary replica's p95 latency from its
// smoothed (EWMA) latency — 3x the mean is the standard tail estimate
// for exponential-ish service times — floored at HedgeMinDelay and
// capped at RetryBackoff so a cold or noisy estimate cannot push the
// hedge past the breaker's own patience.
func (c *Client) hedgeDelay(rep *replicaState) time.Duration {
	d := 3 * time.Duration(rep.ewma.Load())
	if d < c.opts.HedgeMinDelay {
		d = c.opts.HedgeMinDelay
	}
	if d > c.opts.RetryBackoff {
		d = c.opts.RetryBackoff
	}
	return d
}

// readOrderStack sizes the stack array a read keeps its replica order in;
// a larger group's order spills to the heap.
const readOrderStack = 8

// readOrder appends a snapshot of the group's up replicas to ups, fastest
// (EWMA) first.
func (g *groupState) readOrder(ups []*replicaState) []*replicaState {
	for _, rep := range g.replicas {
		rep.mu.Lock()
		up := !rep.down && !rep.repairing
		rep.mu.Unlock()
		if up {
			ups = append(ups, rep)
		}
	}
	slices.SortStableFunc(ups, func(a, b *replicaState) int { return cmp.Compare(a.ewma.Load(), b.ewma.Load()) })
	return ups
}

// recordLatency adds one operation's elapsed time to the shard's
// latency histogram, striping across histogram shards for concurrency.
func (s *replicaState) recordLatency(start time.Time) {
	s.lat.Record(int(s.latIdx.Add(1)), time.Since(start))
}

// noteLatency folds one sample into the read-preference EWMA (1/8 new).
func (s *replicaState) noteLatency(d time.Duration) {
	old := s.ewma.Load()
	if old == 0 {
		s.ewma.Store(int64(d))
		return
	}
	s.ewma.Store(old - old/8 + int64(d)/8)
}

// admit lets an operation through unless the shard's breaker is open,
// stamping it with the breaker epoch it was admitted under. This is the
// single-replica-group policy: when down, one probe per backoff window.
func (s *replicaState) admit() (admitToken, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.down {
		return admitToken{epoch: s.epoch}, nil
	}
	if s.probing || time.Now().Before(s.retryAt) {
		return admitToken{}, &ShardError{Shard: s.name, Err: ErrShardDown}
	}
	s.probing = true // this op is the single half-open probe
	return admitToken{epoch: s.epoch, probe: true}, nil
}

// admitWrite decides a replicated write's fate for this replica: live
// (token returned), or journaled for repair because the replica is down
// or repairing. The journal append happens under the same lock as the
// state check, so repair's journal-empty rejoin can never miss a write.
func (s *replicaState) admitWrite(journalCap int, key string) (admitToken, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.down && !s.repairing {
		return admitToken{epoch: s.epoch}, true
	}
	s.journalLocked(journalCap, key)
	s.missed.Add(1)
	return admitToken{}, false
}

// admitRead admits a replicated read only on an up replica.
func (s *replicaState) admitRead() (admitToken, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.down && !s.repairing {
		return admitToken{epoch: s.epoch}, true
	}
	return admitToken{}, false
}

// admitProbe admits one half-open probe on a downed replica whose
// backoff has elapsed (replicated groups; used when no replica is up and
// by the background repair scan).
func (s *replicaState) admitProbe() (admitToken, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.down {
		if s.repairing {
			return admitToken{}, false
		}
		return admitToken{epoch: s.epoch}, true
	}
	if s.probing || time.Now().Before(s.retryAt) {
		return admitToken{}, false
	}
	s.probing = true
	return admitToken{epoch: s.epoch, probe: true}, true
}

// journalLocked appends key to the missed-write journal (caller holds
// s.mu). Overflow drops the whole journal and flags a full sync — an
// incomplete journal must never masquerade as a complete delta.
func (s *replicaState) journalLocked(cap int, key string) {
	if s.journalDrop {
		return
	}
	if len(s.journal) >= cap {
		s.journal = nil
		s.journalDrop = true
		s.needsFullSync = true
		return
	}
	s.journal = append(s.journal, key)
}

// observe feeds an operation result back into the replica's breaker and
// wraps shard-level failures in a ShardError. Data-level errors (e.g.
// not-found, integrity) pass through unchanged and prove liveness.
//
// Only results whose token epoch is still current may transition the
// breaker, and only a probe's success may close it — a success that was
// admitted before the trip proves nothing about the shard now.
//
// For replicated groups (replicated=true) two extra rules apply: a
// closing probe lands in the repairing state when the replica has
// anything to catch up on, and a failed write (writeKey != "") journals
// its key so repair re-syncs it — including ambiguous outcomes
// (ErrUnconfirmed), where the replica may or may not have applied it.
func (c *Client) observe(s *replicaState, tok admitToken, err error, replicated bool, writeKey string) error {
	fatal := err != nil && c.opts.IsShardFailure(err)
	ambiguous := err != nil && errors.Is(err, core.ErrUnconfirmed)
	tripped := false
	s.mu.Lock()
	current := tok.epoch == s.epoch
	switch {
	case fatal && current:
		// Trip (or deepen, if this was the failed probe).
		tripped = true
		s.epoch++
		s.down = true
		s.probing = false
		s.failures++
		if replicated {
			s.repairing = true
			if c.opts.OpenRepair != nil {
				// The outage may have been a restart with state loss; a
				// snapshot source exists, so re-sync conservatively.
				s.needsFullSync = true
			}
		}
		backoff := c.opts.RetryBackoff << uint(min(s.failures-1, 16))
		if backoff > c.opts.MaxBackoff || backoff <= 0 {
			backoff = c.opts.MaxBackoff
		}
		s.retryAt = time.Now().Add(backoff)
	case !fatal && current && s.down && tok.probe:
		// The probe came back healthy: close and reset the backoff.
		s.epoch++
		s.down = false
		s.probing = false
		s.failures = 0
		if replicated && (s.needsFullSync || s.journalDrop || len(s.journal) > 0) {
			s.repairing = true // serving resumes only after repair
		} else {
			s.repairing = false
		}
	case !fatal && current && !s.down:
		// Routine success on a closed breaker: nothing to transition.
	default:
		// Stale token (the breaker moved on while this op was in
		// flight): the result must not flap state it predates.
	}
	if replicated && writeKey != "" && err != nil && (fatal || ambiguous) {
		// This replica missed (or may have missed) the write: remember
		// the key so repair re-syncs it from a healthy donor.
		s.repairing = true
		s.journalLocked(c.opts.JournalCap, writeKey)
	}
	s.mu.Unlock()
	if tripped {
		c.opts.Audit.Add(audit.Record{Kind: audit.KindBreakerTrip, Actor: s.name, Detail: err.Error()})
		c.opts.Tracer.NoteFault("breaker trip replica=" + s.name)
	}
	if err != nil {
		s.errors.Add(1)
		if fatal {
			return &ShardError{Shard: s.name, Err: err}
		}
	}
	return err
}

// Degraded returns the names of replicas that are not currently serving
// (breaker open, or suspended while repair catches them up), sorted. An
// empty slice means every replica is believed healthy.
func (c *Client) Degraded() []string {
	var out []string
	for name, rep := range c.reps {
		rep.mu.Lock()
		bad := rep.down || rep.repairing
		rep.mu.Unlock()
		if bad {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Healthy reports whether every replica is serving.
func (c *Client) Healthy() bool { return len(c.Degraded()) == 0 }

// Available reports whether at least one replica is currently serving —
// the cluster-level readiness signal (/healthz reports 503 when false).
func (c *Client) Available() bool {
	for _, rep := range c.reps {
		rep.mu.Lock()
		up := !rep.down && !rep.repairing
		rep.mu.Unlock()
		if up {
			return true
		}
	}
	return false
}

// ShardStats is one replica's activity and health snapshot.
type ShardStats struct {
	Name string
	// Group is the replica group (ring position) this replica belongs
	// to. Equal to Name for single-replica groups.
	Group               string
	Puts, Gets, Deletes uint64
	Errors              uint64
	Down                bool
	// State is "up", "down" or "repairing".
	State               string
	ConsecutiveFailures int
	// Lag counts writes this replica missed (journaled or skipped) since
	// it was last fully caught up.
	Lag uint64
	// Repairs counts completed anti-entropy repairs of this replica.
	Repairs uint64
	// Ownership is the replica's share of the hash space: its group's
	// expected fraction of keys under a uniform distribution.
	Ownership float64
	// Latency summarizes whole-operation latency against this shard as
	// seen by this client, retries and transport included (always on —
	// the recording cost is one clock read and a striped histogram add).
	Latency hist.Quantiles
}

// Stats aggregates cluster activity.
type Stats struct {
	Shards              []ShardStats // sorted by group, ring order
	Groups              int
	Puts, Gets, Deletes uint64
	Errors              uint64
	// Failovers counts replicated reads served by a replica other than
	// the first one tried.
	Failovers uint64
	// QuorumShortfalls counts replicated writes that missed their quorum.
	QuorumShortfalls uint64
	// Repairs and RepairFailures count completed and aborted anti-entropy
	// repair runs across all replicas.
	Repairs        uint64
	RepairFailures uint64
	// HedgesLaunched counts secondary reads issued by the hedge timer,
	// HedgesWon those where the secondary's sealed-valid reply arrived
	// first, and HedgesDenied hedge attempts the retry budget refused.
	HedgesLaunched uint64
	HedgesWon      uint64
	HedgesDenied   uint64
	// RetryBudget snapshots the token bucket that hedges and
	// admission-control retries spend from.
	RetryBudget overload.BudgetStats
	// GroupSkew is the imbalance of routed ops across replica groups
	// (ring positions): how unevenly this client's traffic lands on
	// the shards, regardless of why. Balanced traffic has CV 0 and
	// MaxMean 1; see heat.SkewOf.
	GroupSkew heat.Skew
	// HottestGroup is the replica group that received the most routed
	// ops ("" before any traffic).
	HottestGroup string
}

// Stats snapshots per-replica counters, health and ring ownership.
func (c *Client) Stats() Stats {
	own := c.ring.OwnershipFractions()
	st := Stats{
		Groups:           len(c.order),
		Failovers:        c.failovers.Load(),
		QuorumShortfalls: c.quorumShortfalls.Load(),
		Repairs:          c.repairsDone.Load(),
		RepairFailures:   c.repairFailures.Load(),
		HedgesLaunched:   c.hedgesLaunched.Load(),
		HedgesWon:        c.hedgesWon.Load(),
		HedgesDenied:     c.hedgesDenied.Load(),
		RetryBudget:      c.opts.Budget.Stats(),
	}
	groupOps := make([]uint64, 0, len(c.order))
	for _, name := range c.order {
		g := c.groups[name]
		var groupMax uint64
		for _, rep := range g.replicas {
			rep.mu.Lock()
			state := "up"
			if rep.down {
				state = "down"
			} else if rep.repairing {
				state = "repairing"
			}
			ss := ShardStats{
				Name:                rep.name,
				Group:               g.name,
				Puts:                rep.puts.Load(),
				Gets:                rep.gets.Load(),
				Deletes:             rep.deletes.Load(),
				Errors:              rep.errors.Load(),
				Down:                rep.down,
				State:               state,
				ConsecutiveFailures: rep.failures,
				Lag:                 rep.missed.Load() + uint64(len(rep.journal)),
				Repairs:             rep.repairs.Load(),
				Ownership:           own[g.name],
				Latency:             rep.lat.Snapshot().Quantiles(),
			}
			rep.mu.Unlock()
			st.Shards = append(st.Shards, ss)
			st.Puts += ss.Puts
			st.Gets += ss.Gets
			st.Deletes += ss.Deletes
			st.Errors += ss.Errors
			if ops := ss.Puts + ss.Gets + ss.Deletes; ops > groupMax {
				groupMax = ops
			}
		}
		// A group's routed load is its busiest replica's op count: exact
		// for single-replica groups, and for replicated ones it avoids
		// multiplying quorum fan-out into the skew signal.
		groupOps = append(groupOps, groupMax)
	}
	st.GroupSkew = SkewOfGroups(c.order, groupOps, &st.HottestGroup)
	return st
}

// SkewOfGroups computes load imbalance over per-group op counts and,
// when hottest is non-nil, names the busiest group into it ("" when
// counts are empty or all zero).
func SkewOfGroups(names []string, ops []uint64, hottest *string) heat.Skew {
	if hottest != nil {
		*hottest = ""
		var best uint64
		for i, n := range ops {
			if n > best && i < len(names) {
				best = n
				*hottest = names[i]
			}
		}
	}
	return heat.SkewOf(ops)
}

// Budget exposes the client's retry/hedge token bucket (never nil —
// withDefaults installs one), so callers can share it or surface its
// stats.
func (c *Client) Budget() *overload.RetryBudget { return c.opts.Budget }

// Close stops the repair goroutine and closes every replica backend.
// Safe to call twice.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.stopCh)
	c.wg.Wait()
	var firstErr error
	for _, name := range c.order {
		for _, rep := range c.groups[name].replicas {
			if err := rep.backend.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
