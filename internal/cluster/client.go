package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
	// RetryBackoff is the base delay before a failed shard is probed
	// again (default 250ms). The delay doubles per consecutive failure up
	// to MaxBackoff (default 8s).
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// WriteQuorum is the number of replica acks a write needs in a
	// replicated group (0 = majority). Clamped to each group's size.
	WriteQuorum int
	// OpenRepair opens an anti-entropy repair session against the named
	// replica (the root package dials a *core.Client as for the pool). Nil
	// restricts repair to journal replay: a replica that lost state
	// entirely cannot rejoin without a snapshot source.
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
	// result is discarded. Every hedge spends a Budget token that reads
	// earned, so hedges stay within its ratio of reads from the first on.
	HedgeReads bool
	// HedgeMinDelay floors the hedge delay (default 1ms) so
	// sub-millisecond latency estimates do not hedge every read.
	HedgeMinDelay time.Duration
	// Budget is the token bucket that admission-control retries and
	// hedged reads spend from; successful operations earn tokens back
	// at overload.DefaultBudgetRatio, bounding total amplification — a
	// read for hedges and retries, a write for retries alone. Nil
	// installs a per-client default bucket.
	Budget *overload.RetryBudget
}

// isShardFailure classifies an operation error as a shard outage (trips
// the breaker) rather than a data-level error like not-found: a closed
// connection or pool, or a timeout.
func isShardFailure(err error) bool {
	return errors.Is(err, core.ErrClosed) || errors.Is(err, core.ErrTimeout) || errors.Is(err, core.ErrPoolClosed)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.RetryBackoff <= 0 {
		out.RetryBackoff = 250 * time.Millisecond
	}
	if out.MaxBackoff <= 0 {
		out.MaxBackoff = 8 * time.Second
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
// Each ring position is a replica group (of one unless built with
// NewReplicated), and every operation takes the same route through it
// whatever its size: writes fan out to all live replicas and succeed on a
// quorum of acks, reads go to the fastest replica and fail over to the
// next. Within a group every replica has an independent health breaker. A
// replicated group never fails fast while any replica survives, and a
// recovering replica is repaired (snapshot + delta + journal replay)
// before it serves again. A group of one is a fan-out of one: when its
// replica's breaker is open, operations fail at once with a ShardError
// wrapping ErrShardDown until the retry backoff elapses and one of them
// is let through as the probe; it has no peer to repair from, so it keeps
// no repair state.
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
	quorum   int // write quorum (1 for a group of one)
	// repairMu admits one repair run per group at a time (see runRepair).
	repairMu sync.Mutex
	// fanFree holds the group's idle fan-out records (see write).
	fanMu   sync.Mutex
	fanFree []*fanout
}

// single reports a group of one. Its replica has no peers, which decides
// two things, each written once on replicaState (admitWrite,
// fallBehindLocked) — and never which route an operation takes.
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
// On top of the breaker, a replica with peers moves through three
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
	// many goroutines may drive one shard through a pool: one stripe per
	// processor, each a 29 KiB bucket array once it records.
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

	repairing     bool     // serving suspended until repair completes (never set without peers)
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

// NewReplicated builds a cluster client over replica groups — a plain
// shard is a group of one. Group names take ring positions; writes to a
// group fan out to its replicas and need opts.WriteQuorum acks (majority
// by default); reads are served by the fastest healthy replica with
// transparent failover. Unless opts.DisableAutoRepair is set, a background
// goroutine probes downed replicas and repairs recovering ones (donor
// snapshot + delta + journal replay) before they rejoin.
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
			rep := &replicaState{name: r.Name, backend: r.Backend, group: gs, lat: hist.NewSharded(runtime.GOMAXPROCS(0)), work: make(chan *fanout)}
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
	c.ring = NewRing(names, DefaultVirtualNodes)
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

// Put stores value under key on the owning group: fanned out to its live
// replicas and acked at the write quorum (one ack, on a group of one).
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
	defer c.opts.Heat.Record(heat.KindPut, heat.HashKey(key), len(value), 0) // recorded after the reply
	return c.writeOne(ctx, g, "put", core.BatchOp{Kind: core.BatchPut, Key: key, Value: value})
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
	// The work list of one lives on this frame: read never retains ops.
	ops := [1]core.BatchOp{{Kind: core.BatchGet, Key: key}}
	var out [1]core.BatchResult
	c.read(ctx, g, "get", ops[:], out[:])
	c.opts.Heat.Record(heat.KindGet, heat.HashKey(key), 0, 0)
	c.opts.Heat.AddBytesOut(len(out[0].Value))
	return out[0].Value, out[0].Err
}

// Delete removes key from the owning group (acked at the write quorum; a
// replica reporting not-found counts as an ack).
func (c *Client) Delete(key string) error {
	return c.DeleteContext(context.Background(), key)
}

// DeleteContext is Delete under ctx (see PutContext).
func (c *Client) DeleteContext(ctx context.Context, key string) error {
	g, err := c.groupFor(ctx, key)
	if err != nil {
		return err
	}
	defer c.opts.Heat.Record(heat.KindDelete, heat.HashKey(key), 0, 0)
	return c.writeOne(ctx, g, "delete", core.BatchOp{Kind: core.BatchDelete, Key: key})
}

// writeOne is write for a work list of one.
func (c *Client) writeOne(ctx context.Context, g *groupState, kind string, op core.BatchOp) error {
	// Both arrays live on this frame: write copies the list into its record.
	ops := [1]core.BatchOp{op}
	var out [1]core.BatchResult
	c.write(ctx, g, kind, ops[:], out[:])
	return out[0].Err
}

// recordLatency adds one operation's elapsed time to the shard's
// latency histogram, striping across histogram shards for concurrency,
// and returns it.
func (s *replicaState) recordLatency(start time.Time) time.Duration {
	d := time.Since(start)
	s.lat.Record(int(s.latIdx.Add(1)), d)
	return d
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

// admitWrite decides a write's fate for this replica: live (token
// returned), or — the replica being down or repairing — journaled for
// repair. The journal append happens under the same lock as the state
// check, so repair's journal-empty rejoin can never miss a write. A
// replica without peers has no repair to wait for and no loop tending it:
// its writes carry the half-open probe themselves.
func (s *replicaState) admitWrite(journalCap int, ops []core.BatchOp) (admitToken, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.down && !s.repairing {
		return admitToken{epoch: s.epoch}, true
	}
	if s.group.single() {
		return s.probeLocked()
	}
	for i := range ops {
		s.journalLocked(journalCap, ops[i].Key)
	}
	s.missed.Add(uint64(len(ops)))
	return admitToken{}, false
}

// admitRead admits a read on an up replica — and, as the group's last
// resort when none is up, as the half-open probe of a downed one.
func (s *replicaState) admitRead(lastResort bool) (admitToken, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.down && !s.repairing {
		return admitToken{epoch: s.epoch}, true
	}
	if !lastResort {
		return admitToken{}, false
	}
	return s.probeLocked()
}

// probeLocked admits the one half-open probe of a downed replica whose
// backoff has elapsed (caller holds s.mu): an op of a group with nobody
// else to ask, or the background repair scan's own.
func (s *replicaState) probeLocked() (admitToken, bool) {
	if !s.down || s.probing || time.Now().Before(s.retryAt) {
		return admitToken{}, false
	}
	s.probing = true
	return admitToken{epoch: s.epoch, probe: true}, true
}

// fallBehindLocked suspends this replica's serving until repair has caught
// it up from a peer, and reports whether there is anything to record
// (caller holds s.mu). A replica without peers keeps no repair state — no
// journal, repairing or needsFullSync: no donor can exist, and its breaker
// alone decides whether it serves.
func (s *replicaState) fallBehindLocked() bool {
	if s.group.single() {
		return false
	}
	s.repairing = true
	return true
}

// missedWrite journals a write this replica was sent and did not apply —
// or, the outcome being ambiguous (ErrUnconfirmed), may not have — so
// repair re-syncs the key from a healthy donor.
func (s *replicaState) missedWrite(journalCap int, key string) {
	s.mu.Lock()
	if s.fallBehindLocked() {
		s.journalLocked(journalCap, key)
	}
	s.mu.Unlock()
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
// admitted before the trip proves nothing about the shard now. A replica
// with peers that trips falls behind them, and a closing probe leaves it
// repairing while it has anything to catch up on.
func (c *Client) observe(s *replicaState, tok admitToken, err error) error {
	fatal := err != nil && isShardFailure(err)
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
		if s.fallBehindLocked() && c.opts.OpenRepair != nil {
			// The outage may have been a restart with state loss; a
			// snapshot source exists, so re-sync conservatively.
			s.needsFullSync = true
		}
		backoff := c.opts.RetryBackoff << uint(min(s.failures-1, 16))
		if backoff > c.opts.MaxBackoff || backoff <= 0 {
			backoff = c.opts.MaxBackoff
		}
		s.retryAt = time.Now().Add(backoff)
	case !fatal && current && s.down && tok.probe:
		// The probe came back healthy: close and reset the backoff.
		// Serving resumes only after repair, if there is any to do.
		s.epoch++
		s.down = false
		s.probing = false
		s.failures = 0
		s.repairing = s.needsFullSync || s.journalDrop || len(s.journal) > 0
	case !fatal && current && !s.down:
		// Routine success on a closed breaker: nothing to transition.
	default:
		// Stale token (the breaker moved on while this op was in
		// flight): the result must not flap state it predates.
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
func (c *Client) Available() bool { return len(c.Degraded()) < len(c.reps) }

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
