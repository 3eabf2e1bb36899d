// Package obs is Precursor's operation-tracing and stage-timing layer:
// the live counterpart of the bench harness's offline latency breakdowns
// (Figure 8), threaded through the whole hot path.
//
// Both sides of an operation record per-stage spans — the client times
// its payload cryptography, credit wait, ring write and response wait;
// the server times frame pickup, enclave verification, table/pool work
// and the reply path — into a Tracer. A Tracer keeps two things: sharded
// per-stage histograms (internal/hist) for quantile export on /metrics,
// and a bounded lock-free ring of recent complete traces for inspection
// via GET /debug/traces (Chrome trace_event JSON) and the slow-op log.
//
// The design constraint is the disabled cost: every recording entry
// point is a method on a nil-able *Op (or a nil-check on the *Tracer),
// so a server or client built without a Tracer pays one predictable
// branch per request and nothing else. The enabled cost is a handful of
// monotonic clock reads and one pooled allocation per operation.
//
// Security note (DESIGN.md §6): spans carry stage names, timestamps,
// operation ids and fault annotations only — never keys, values, or
// K_operation material. See OBSERVABILITY.md.
package obs

import (
	"context"
	"log/slog"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"precursor/internal/hist"
)

// Stage identifies one timed segment of the operation pipeline. The
// cli_* stages are recorded by the client, the srv_* stages by the
// server; OBSERVABILITY.md maps each to its PROTOCOL.md message-flow
// step.
type Stage uint8

// Pipeline stages, in rough operation order.
const (
	// CliEncrypt is the client-side payload encryption + MAC under the
	// fresh K_operation (Algorithm 1; Put only).
	CliEncrypt Stage = iota
	// CliSeal is control-data encoding plus AEAD sealing under K_session,
	// and request-frame encoding.
	CliSeal
	// CliCreditWait is time spent waiting for request-ring credit before
	// the frame could be placed.
	CliCreditWait
	// CliRingWrite is the successful one-sided write of the request frame
	// into the server's ring.
	CliRingWrite
	// CliRespWait is the response poll loop: from frame sent to the
	// authenticated response for the in-flight oid.
	CliRespWait
	// CliVerify is client-side response payload verification: MAC
	// recompute + decrypt (Get only).
	CliVerify
	// CliBackoff is retry backoff sleep between read attempts.
	CliBackoff
	// CliAttempt spans one full attempt of a retried read; sibling
	// CliAttempt spans under one trace carry increasing Attempt numbers.
	CliAttempt
	// CliReplica spans one replica's share of a replicated cluster
	// operation: the per-replica child spans of a quorum write's fan-out
	// or a replicated read's failover sequence. The span's Replica field
	// names the member; the trace's Group field names the replica group.
	CliReplica
	// CliTotal spans the whole client operation (recorded automatically
	// on Finish for client-side tracers).
	CliTotal
	// SrvPickup is poll-to-pickup: from the trusted thread's poll-loop
	// iteration start to a complete frame being detected in a ring.
	SrvPickup
	// SrvDecode is untrusted request-frame decoding.
	SrvDecode
	// SrvVerify is the enclave's control-data handling: AEAD open of the
	// sealed control segment, control decoding, and the replay check
	// (Algorithm 2, lines 1–6).
	SrvVerify
	// SrvApply is the table and payload-pool work of the operation body:
	// store_to_untrusted / lookup / delete (Algorithm 2, line 7+).
	SrvApply
	// SrvVlogRead is the value-log read-through: fetching a record from
	// the untrusted on-disk log and re-authenticating its enclave-sealed
	// placement metadata, on gets whose value is not memory-resident.
	SrvVlogRead
	// SrvReplySeal is response-control encoding plus AEAD sealing.
	SrvReplySeal
	// SrvSend runs from the sealed reply to the one-sided response-ring
	// write returning: the trusted thread's own write, or, for a queued
	// reply, the untrusted-sender path from enqueue on the outgoing channel
	// (includes response-ring credit wait).
	SrvSend
	// SrvTotal spans the whole server-side handling (recorded
	// automatically on Finish for server-side tracers).
	SrvTotal
	// CliBatch is client-side batch assembly: encoding N ops into one
	// control blob, sealing it, and building the single frame.
	CliBatch
	// SrvBatch is the server-side per-op apply loop of a batch frame:
	// everything between the one verify and the one reply seal.
	SrvBatch
	// NumStages is the number of defined stages.
	NumStages
)

// stageNames are the wire/export names, stable API for dashboards.
var stageNames = [NumStages]string{
	CliEncrypt:    "cli_encrypt",
	CliSeal:       "cli_seal",
	CliCreditWait: "cli_credit_wait",
	CliRingWrite:  "cli_ring_write",
	CliRespWait:   "cli_resp_wait",
	CliVerify:     "cli_verify",
	CliBackoff:    "cli_backoff",
	CliAttempt:    "cli_attempt",
	CliReplica:    "cli_replica",
	CliTotal:      "cli_total",
	SrvPickup:     "srv_pickup",
	SrvDecode:     "srv_decode",
	SrvVerify:     "srv_verify",
	SrvApply:      "srv_apply",
	SrvVlogRead:   "srv_vlog_read",
	SrvReplySeal:  "srv_reply_seal",
	SrvSend:       "srv_send",
	SrvTotal:      "srv_total",
	CliBatch:      "cli_batch",
	SrvBatch:      "srv_batch",
}

// String returns the stage's export name.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "stage?"
}

// Side tells a Tracer which half of the pipeline it instruments (it
// determines the automatic total stage and labels exports).
type Side uint8

// Tracer sides.
const (
	// SideServer tracers record srv_* stages.
	SideServer Side = iota
	// SideClient tracers record cli_* stages.
	SideClient
)

// String returns "server" or "client".
func (s Side) String() string {
	if s == SideClient {
		return "client"
	}
	return "server"
}

// totalStage is the side's automatic whole-operation stage.
func (s Side) totalStage() Stage {
	if s == SideClient {
		return CliTotal
	}
	return SrvTotal
}

// timeBase anchors the package's monotonic clock. All span timestamps
// are nanoseconds since process start: reading the monotonic clock
// alone (time.Since) costs about half a full time.Now(), and the hot
// path reads it per stage boundary.
var timeBase = time.Now()

// Now returns the current time on the tracer's monotonic timebase, in
// nanoseconds since process start. Callers holding only a *Tracer (not
// an *Op) use it to stamp span starts before an Op exists.
func Now() int64 { return int64(time.Since(timeBase)) }

// TimeBaseUnixNano returns the wall-clock instant (Unix nanoseconds) the
// monotonic timebase is anchored at, so a collector can place this
// process's span timestamps (Now-relative) on a shared absolute axis
// when stitching traces from several processes.
func TimeBaseUnixNano() int64 { return timeBase.UnixNano() }

// randID returns a uniformly random nonzero 64-bit identifier. Trace
// and span ids are random (not sequential) so ids minted by different
// processes collide only with ~2^-64 probability — the property
// cross-node trace stitching rests on. Zero is reserved for "absent".
func randID() uint64 {
	for {
		if v := rand.Uint64(); v != 0 {
			return v
		}
	}
}

// SpanRef is a portable reference to an in-flight span: enough for a
// callee (another goroutine, another process via the wire trace
// context) to record its own work as a child of the referenced span.
// The zero SpanRef means "no trace"; methods accepting one treat it as
// a no-op, so untraced paths need no branches.
type SpanRef struct {
	// TraceID is the end-to-end trace the span belongs to.
	TraceID uint64
	// SpanID is the span itself — the parent of whatever adopts the ref.
	SpanID uint64
	// Sampled carries the origin's head-sampling decision so every node
	// on the trace's path retains or discards it coherently.
	Sampled bool
}

// Valid reports whether the ref actually references a trace.
func (r SpanRef) Valid() bool { return r.TraceID != 0 }

// refKey is the context key a SpanRef travels under.
type refKey struct{}

// WithRef returns a context carrying ref as the parent span of whatever
// runs under it: every layer of the op path reads it with RefFrom and
// records its own work as a child. An invalid ref returns ctx itself, so
// an untraced caller derives (and allocates) nothing.
func WithRef(ctx context.Context, ref SpanRef) context.Context {
	if !ref.Valid() {
		return ctx
	}
	return context.WithValue(ctx, refKey{}, ref)
}

// RefFrom returns the SpanRef ctx carries, the zero ref when it carries
// none.
func RefFrom(ctx context.Context) SpanRef {
	ref, _ := ctx.Value(refKey{}).(SpanRef)
	return ref
}

// Span is one timed stage within a trace.
type Span struct {
	// Stage names the pipeline segment.
	Stage Stage
	// Attempt is the 1-based read-retry attempt number for CliAttempt
	// (and the stages recorded inside it); 0 when not applicable.
	Attempt uint8
	// Replica names the replica-group member a CliReplica span timed
	// (empty for every other stage). Together with Trace.Group it lets
	// /debug/traces show a replicated write's fan-out.
	Replica string
	// Start is the span's start time on the monotonic timebase (Now).
	Start int64
	// Dur is the span's duration in nanoseconds.
	Dur int64
}

// maxSpans bounds the spans kept per operation. A worst-case retried
// read records ~5 spans per attempt; beyond the bound further spans are
// still counted into histograms but dropped from the stored trace.
const maxSpans = 24

// maxFaultNotes bounds the fault annotations stored per trace and the
// tracer's fault-note ring.
const maxFaultNotes = 64

// Trace is one finished operation's record: identity, outcome, and the
// stage spans both for inspection (Recent, /debug/traces) and the
// slow-op log.
type Trace struct {
	// ID is the trace identifier: random, nonzero, and — when the
	// operation adopted a propagated trace context — shared with every
	// other process that worked on the same end-to-end operation.
	ID uint64
	// Span is this operation's own span id within the trace, the parent
	// of any child spans recorded downstream.
	Span uint64
	// Parent is the upstream span this operation is a child of (0 for a
	// trace root).
	Parent uint64
	// Sampled records the head-sampling bit the retention decision used
	// (essential traces — errors, unconfirmed writes, faults, slow-over-
	// threshold — are retained even when it is false).
	Sampled bool
	// Kind is the operation kind ("put", "get", "delete", …).
	Kind string
	// Client is the server-assigned client id, when known.
	Client uint32
	// Oid is the operation id (of the last attempt, for retried reads).
	Oid uint64
	// Start and End bound the operation on the monotonic timebase (Now).
	Start, End int64
	// Err is the operation's error string, empty on success.
	Err string
	// Unconfirmed marks a non-idempotent write whose outcome is unknown
	// (the ErrUnconfirmed join).
	Unconfirmed bool
	// Group names the replica group a replicated cluster operation
	// targeted (empty for unreplicated operations).
	Group string
	// Spans are the recorded stages, in recording order. The side's
	// total stage is always last.
	Spans []Span
	// Faults lists faultfab injections whose record time fell inside
	// [Start, End] — the annotation that lets a chaos run explain its
	// own latency tail. Empty outside chaos runs.
	Faults []string
}

// Dur returns the trace's total duration.
func (t *Trace) Dur() time.Duration { return time.Duration(t.End - t.Start) }

// Config parameterizes New.
type Config struct {
	// Side selects client or server stage bookkeeping.
	Side Side
	// Workers sizes the per-stage histogram sharding (hist.DefaultShards
	// if <= 0); pass the number of threads that will record.
	Workers int
	// Ring bounds the recent-trace ring (default 256).
	Ring int
	// SlowThreshold, when > 0, logs the full stage breakdown of every
	// operation at least this slow.
	SlowThreshold time.Duration
	// Logger receives slow-op reports (slog.Default() if nil).
	Logger *slog.Logger
	// SlowLogBurst is the token-bucket burst for slow-op log lines
	// (default 10): a latency storm gets at most this many consecutive
	// lines before the steady-state rate applies.
	SlowLogBurst int
	// SlowLogEvery is the steady-state interval between slow-op log
	// lines once the burst is spent (default 1s; negative disables
	// rate limiting entirely). Suppressed reports are counted — see
	// SlowSuppressed and precursor_slowop_suppressed_total.
	SlowLogEvery time.Duration
	// TailSample is the probability an *unremarkable* finished trace is
	// retained in the recent ring. Essential traces — errors, unconfirmed
	// writes, fault-annotated operations, and anything at or over
	// SlowThreshold — are always retained (tail-based sampling): the ring
	// keeps 100% of what an operator would grep for, and TailSample only
	// thins the healthy background. 0 means 1.0 (retain everything, the
	// pre-tail-sampling behavior every existing caller gets); negative
	// retains no unremarkable traces at all. Stage histograms and
	// exemplars always record regardless of retention. An operation that
	// adopted a propagated trace context inherits the origin's sampling
	// decision instead of rolling its own, so a trace is kept or dropped
	// coherently on every node it touched.
	TailSample float64
}

// Tracer aggregates operation traces for one side of the pipeline. All
// methods are safe for concurrent use; a nil *Tracer is inert (Start
// returns a nil *Op whose methods no-op).
type Tracer struct {
	side  Side
	hists [NumStages]*hist.Sharded

	// ring is the recent-trace ring, sized once by Config.Ring.
	ring    []atomic.Pointer[Trace]
	ringIdx atomic.Uint64

	pool sync.Pool

	// sampleCut implements TailSample: an unremarkable trace is head-
	// sampled iff its random trace id is <= sampleCut (math.MaxUint64 =
	// keep all, 0 = keep none). Deriving the decision from the id keeps
	// Start allocation- and float-free.
	sampleCut uint64
	// retained / discarded count Finish's tail-sampling outcomes.
	retained, discarded atomic.Uint64

	// exemplars holds, per stage, the slowest span since the last
	// TakeExemplar — the trace-id link exported next to the stage's
	// latency quantiles on /metrics.
	exemplars [NumStages]atomic.Pointer[exemplar]

	slow   atomic.Int64
	logger *slog.Logger

	// Slow-op log token bucket: a latency storm must not flood stderr.
	// slowMu guards the bucket; suppressed is the cumulative drop
	// counter (atomic so the metrics scrape never takes the mutex).
	slowMu        sync.Mutex
	slowTokens    float64
	slowLast      int64   // timebase ns of the last refill
	slowBurst     float64 // bucket capacity
	slowEveryNs   float64 // ns per replenished token (<= 0: unlimited)
	slowSuppDelta uint64  // drops since the last emitted line
	suppressed    atomic.Uint64

	faults   [maxFaultNotes]atomic.Pointer[faultNote]
	faultIdx atomic.Uint64
	faultN   atomic.Uint64
}

// faultNote is one recorded fault-injection annotation.
type faultNote struct {
	ts   int64
	desc string
}

// exemplar links a stage's latency to the trace that exhibited it.
type exemplar struct {
	traceID uint64
	dur     int64
}

// New creates a Tracer.
func New(cfg Config) *Tracer {
	ringSize := cfg.Ring
	if ringSize <= 0 {
		ringSize = 256
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	t := &Tracer{
		side:   cfg.Side,
		logger: logger,
		ring:   make([]atomic.Pointer[Trace], ringSize),
	}
	switch {
	case cfg.TailSample < 0:
		t.sampleCut = 0
	case cfg.TailSample == 0 || cfg.TailSample >= 1:
		t.sampleCut = math.MaxUint64
	default:
		t.sampleCut = uint64(cfg.TailSample * float64(math.MaxUint64))
	}
	t.slow.Store(int64(cfg.SlowThreshold))
	burst := cfg.SlowLogBurst
	if burst <= 0 {
		burst = 10
	}
	every := cfg.SlowLogEvery
	if every == 0 {
		every = time.Second
	}
	t.slowBurst = float64(burst)
	t.slowTokens = t.slowBurst
	t.slowEveryNs = float64(every.Nanoseconds()) // negative: unlimited
	t.slowLast = Now()
	for s := Stage(0); s < NumStages; s++ {
		t.hists[s] = hist.NewSharded(cfg.Workers)
	}
	t.pool.New = func() any { return new(Op) }
	return t
}

// Side returns which pipeline half this tracer instruments.
func (t *Tracer) Side() Side { return t.side }

// SetSlowThreshold changes the slow-op log threshold (0 disables).
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t == nil {
		return
	}
	t.slow.Store(int64(d))
}

// Start begins recording one operation handled by the given worker
// (worker indexes the histogram shards; any non-negative value works).
// A nil tracer returns a nil *Op, whose methods all no-op.
func (t *Tracer) Start(worker int, kind string) *Op {
	return t.StartAt(worker, kind, Now())
}

// StartAt is Start with an explicit operation start time, for callers
// that timestamped the pickup before deciding to trace (the server's
// poll loop).
func (t *Tracer) StartAt(worker int, kind string, startNanos int64) *Op {
	if t == nil {
		return nil
	}
	op := t.pool.Get().(*Op)
	op.tr = t
	op.worker = worker
	op.kind = kind
	op.start = startNanos
	op.id = randID()
	op.span = randID()
	// Head-sample off the random trace id: cheap, and every tracer with
	// the same TailSample makes the same call for the same trace.
	op.sampled = op.id <= t.sampleCut
	return op
}

// NoteFault records a fault-injection annotation (from faultfab's
// OnFault hook): traces finished while the note's timestamp falls in
// their window pick it up. Safe from any goroutine; nil-tracer no-op.
func (t *Tracer) NoteFault(desc string) {
	if t == nil {
		return
	}
	i := t.faultIdx.Add(1) - 1
	t.faults[i%maxFaultNotes].Store(&faultNote{ts: Now(), desc: desc})
	t.faultN.Add(1)
}

// faultsBetween collects fault notes recorded within [from, to].
func (t *Tracer) faultsBetween(from, to int64) []string {
	var out []string
	for i := range t.faults {
		n := t.faults[i].Load()
		if n != nil && n.ts >= from && n.ts <= to {
			out = append(out, n.desc)
			if len(out) >= 8 {
				break
			}
		}
	}
	return out
}

// push publishes a finished trace into the lock-free recent ring.
func (t *Tracer) push(tr *Trace) {
	i := t.ringIdx.Add(1) - 1
	t.ring[i%uint64(len(t.ring))].Store(tr)
}

// RingSize returns the recent-trace ring bound. Nil-safe.
func (t *Tracer) RingSize() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// Recent returns the retained recent traces, oldest first.
func (t *Tracer) Recent() []Trace {
	if t == nil {
		return nil
	}
	r := t.ring
	out := make([]Trace, 0, len(r))
	// Walk the ring from the oldest retained slot forward so the result
	// is (approximately, under concurrent pushes) in finish order.
	next := t.ringIdx.Load()
	for k := uint64(0); k < uint64(len(r)); k++ {
		p := r[(next+k)%uint64(len(r))].Load()
		if p != nil {
			out = append(out, *p)
		}
	}
	return out
}

// Retained returns how many finished traces tail sampling published to
// the recent ring. Nil-safe.
func (t *Tracer) Retained() uint64 {
	if t == nil {
		return 0
	}
	return t.retained.Load()
}

// Discarded returns how many finished traces tail sampling dropped
// (unremarkable and not head-sampled). Their spans were still recorded
// into the stage histograms. Nil-safe.
func (t *Tracer) Discarded() uint64 {
	if t == nil {
		return 0
	}
	return t.discarded.Load()
}

// noteExemplar keeps the slowest span per stage since the last
// TakeExemplar. Load-compare-store (not CAS): a lost race forgets one
// candidate, which exemplars tolerate.
func (t *Tracer) noteExemplar(s Stage, traceID uint64, dur int64) {
	cur := t.exemplars[s].Load()
	if cur == nil || dur >= cur.dur {
		t.exemplars[s].Store(&exemplar{traceID: traceID, dur: dur})
	}
}

// TakeExemplar returns and clears the stage's exemplar: the trace id of
// the slowest span recorded for the stage since the previous call, so
// each /metrics scrape links the stage's quantiles to a concrete recent
// trace. ok is false when the stage recorded nothing since. Nil-safe.
func (t *Tracer) TakeExemplar(s Stage) (traceID uint64, dur time.Duration, ok bool) {
	if t == nil || s >= NumStages {
		return 0, 0, false
	}
	e := t.exemplars[s].Swap(nil)
	if e == nil {
		return 0, 0, false
	}
	return e.traceID, time.Duration(e.dur), true
}

// StageQuantiles is one stage's latency summary, as exported on
// /metrics and Client.StatsStruct.
type StageQuantiles struct {
	// Stage names the pipeline segment.
	Stage Stage
	// Quantiles is the stage's latency distribution snapshot.
	Quantiles hist.Quantiles
}

// Snapshot returns a quantile summary for every stage that has recorded
// at least one sample, in pipeline order. Nil-tracer returns nil.
func (t *Tracer) Snapshot() []StageQuantiles {
	if t == nil {
		return nil
	}
	var out []StageQuantiles
	for s := Stage(0); s < NumStages; s++ {
		if t.hists[s].Count() == 0 {
			continue
		}
		out = append(out, StageQuantiles{Stage: s, Quantiles: t.hists[s].Snapshot().Quantiles()})
	}
	return out
}

// slowAdmit consults the slow-op token bucket: it returns whether this
// report may be logged and, when it may, how many reports were
// suppressed since the last emitted line (so the log still conveys
// storm magnitude without a line per op).
func (t *Tracer) slowAdmit() (suppressedSince uint64, ok bool) {
	if t.slowEveryNs <= 0 {
		return 0, true
	}
	now := Now()
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	t.slowTokens += float64(now-t.slowLast) / t.slowEveryNs
	t.slowLast = now
	if t.slowTokens > t.slowBurst {
		t.slowTokens = t.slowBurst
	}
	if t.slowTokens < 1 {
		t.slowSuppDelta++
		t.suppressed.Add(1)
		return 0, false
	}
	t.slowTokens--
	since := t.slowSuppDelta
	t.slowSuppDelta = 0
	return since, true
}

// SlowSuppressed returns the cumulative count of slow-op reports the
// rate limiter dropped (precursor_slowop_suppressed_total). Nil-safe.
func (t *Tracer) SlowSuppressed() uint64 {
	if t == nil {
		return 0
	}
	return t.suppressed.Load()
}

// logSlow emits the slow-op report: one line with the breakdown, never
// any key or payload material.
func (t *Tracer) logSlow(tr *Trace) {
	suppressedSince, ok := t.slowAdmit()
	if !ok {
		return
	}
	attrs := []any{
		slog.String("kind", tr.Kind),
		slog.Uint64("trace", tr.ID),
		slog.Uint64("oid", tr.Oid),
		slog.Int("client", int(tr.Client)),
		slog.Duration("total", tr.Dur()),
		slog.String("stages", formatSpans(tr.Spans)),
	}
	if tr.Err != "" {
		attrs = append(attrs, slog.String("err", tr.Err))
	}
	if tr.Unconfirmed {
		attrs = append(attrs, slog.Bool("unconfirmed", true))
	}
	if len(tr.Faults) > 0 {
		attrs = append(attrs, slog.Any("faults", tr.Faults))
	}
	if suppressedSince > 0 {
		attrs = append(attrs, slog.Uint64("suppressed_since_last", suppressedSince))
	}
	t.logger.Warn("slow operation", attrs...)
}

// Op is one in-flight operation's recording handle. All methods are
// nil-receiver safe — the disabled-tracer hot path is a single branch.
// An Op is owned by one goroutine at a time (ownership transfers with
// the operation, e.g. trusted thread → sender loop on the server).
type Op struct {
	tr      *Tracer
	worker  int
	id      uint64 // trace id (adopted from a SpanRef, or minted fresh)
	span    uint64 // this operation's own span id
	parent  uint64 // upstream span id (0 = trace root)
	sampled bool   // head-sampling decision, local or inherited
	kind    string
	client  uint32
	oid     uint64
	start   int64
	err     string
	group   string
	unconf  bool

	nspans  int
	dropped bool
	spans   [maxSpans]Span
}

// Now returns the current time on the monotonic timebase, or 0 on a
// nil Op so disabled-tracer paths skip the clock read entirely.
func (o *Op) Now() int64 {
	if o == nil {
		return 0
	}
	return Now()
}

// SetKind overrides the operation kind (the server learns it only after
// decoding the control data).
func (o *Op) SetKind(kind string) {
	if o != nil {
		o.kind = kind
	}
}

// SetClient records the server-assigned client id.
func (o *Op) SetClient(id uint32) {
	if o != nil {
		o.client = id
	}
}

// SetOid records the operation id (call per attempt; the last wins).
func (o *Op) SetOid(oid uint64) {
	if o != nil {
		o.oid = oid
	}
}

// SetGroup records the replica group the operation targeted.
func (o *Op) SetGroup(group string) {
	if o != nil {
		o.group = group
	}
}

// Ref returns a portable reference to this operation's span, for
// propagation to children — downstream goroutines, or a peer process
// via the wire trace context. Returns the zero SpanRef on a nil Op, so
// untraced paths propagate "no context" for free.
func (o *Op) Ref() SpanRef {
	if o == nil {
		return SpanRef{}
	}
	return SpanRef{TraceID: o.id, SpanID: o.span, Sampled: o.sampled}
}

// AdoptRef stitches this operation into the referenced trace: the op
// takes the ref's trace id, becomes a child of the ref's span, and
// inherits the origin's sampling decision (so the whole distributed
// trace is retained or thinned coherently). The op keeps its own span
// id. No-op on a nil Op or an invalid ref.
func (o *Op) AdoptRef(r SpanRef) {
	if o == nil || !r.Valid() {
		return
	}
	o.id = r.TraceID
	o.parent = r.SpanID
	o.sampled = r.Sampled
}

// Continue stitches this operation under the span ctx carries and
// returns a context carrying the operation's own span, for its children.
// On a nil Op it returns ctx itself: a layer without a tracer forwards
// its caller's ref verbatim and allocates nothing.
func (o *Op) Continue(ctx context.Context) context.Context {
	if o == nil {
		return ctx
	}
	o.AdoptRef(RefFrom(ctx))
	return WithRef(ctx, o.Ref())
}

// TraceID returns the operation's current trace id (0 on nil). Useful
// for tests and log correlation; the hot path never needs it.
func (o *Op) TraceID() uint64 {
	if o == nil {
		return 0
	}
	return o.id
}

// ReplicaSpanAt records one replica's share of a replicated operation
// with explicit bounds — a CliReplica child span named after the
// member. Like every Op method it must be called by the Op's owning
// goroutine; a replicated write's fan-out funnels its per-replica
// timings to one collector that records them all.
func (o *Op) ReplicaSpanAt(replica string, start, end int64) {
	if o == nil {
		return
	}
	o.add(Span{Stage: CliReplica, Replica: replica, Start: start, Dur: end - start})
}

// SetError records the operation's final error.
func (o *Op) SetError(err error) {
	if o != nil && err != nil {
		o.err = err.Error()
	}
}

// MarkUnconfirmed flags the trace as an unknown-outcome write.
func (o *Op) MarkUnconfirmed() {
	if o != nil {
		o.unconf = true
	}
}

// Span records a stage from start (a value from Now) to the current
// time.
func (o *Op) Span(stage Stage, start int64) {
	if o == nil {
		return
	}
	o.SpanAt(stage, start, Now())
}

// SpanEnd records a stage from start to now and returns the end
// timestamp, so back-to-back stages can share one clock read (the
// previous stage's end is the next one's start). Returns 0 on nil.
func (o *Op) SpanEnd(stage Stage, start int64) int64 {
	if o == nil {
		return 0
	}
	end := Now()
	o.add(Span{Stage: stage, Start: start, Dur: end - start})
	return end
}

// SpanAt records a stage with explicit bounds.
func (o *Op) SpanAt(stage Stage, start, end int64) {
	if o == nil {
		return
	}
	o.add(Span{Stage: stage, Start: start, Dur: end - start})
}

// AttemptSpan records one CliAttempt span with its 1-based attempt
// number.
func (o *Op) AttemptSpan(attempt int, start int64) {
	if o == nil {
		return
	}
	a := attempt
	if a > 255 {
		a = 255
	}
	o.add(Span{Stage: CliAttempt, Attempt: uint8(a), Start: start, Dur: Now() - start})
}

// add appends a span, dropping (but still histogramming, via Finish's
// loop over stored spans — dropped spans are recorded immediately
// instead) past the bound.
func (o *Op) add(sp Span) {
	if o.nspans >= maxSpans {
		// Histogram the overflow sample now; it just won't appear in the
		// stored trace.
		o.dropped = true
		o.tr.hists[sp.Stage].Record(o.worker, time.Duration(sp.Dur))
		return
	}
	o.spans[o.nspans] = sp
	o.nspans++
}

// Finish completes the operation: appends the side's total stage and
// feeds every span into the stage histograms and exemplar slots
// (always), then makes the tail-sampling retention call — essential
// traces (error, unconfirmed, fault-annotated, slow-over-threshold)
// always publish to the recent ring, unremarkable ones only when
// head-sampled — emits the slow-op log if over threshold, and recycles
// the Op. The Op must not be used afterwards.
func (o *Op) Finish() {
	if o == nil {
		return
	}
	t := o.tr
	end := Now()
	o.add(Span{Stage: t.side.totalStage(), Start: o.start, Dur: end - o.start})
	for i := 0; i < o.nspans; i++ {
		sp := &o.spans[i]
		t.hists[sp.Stage].Record(o.worker, time.Duration(sp.Dur))
		t.noteExemplar(sp.Stage, o.id, sp.Dur)
	}
	th := t.slow.Load()
	essential := o.err != "" || o.unconf || (th > 0 && end-o.start >= th)
	var faults []string
	if t.faultN.Load() > 0 {
		faults = t.faultsBetween(o.start, end)
		if len(faults) > 0 {
			essential = true
		}
	}
	if !essential && !o.sampled {
		t.discarded.Add(1)
		*o = Op{}
		t.pool.Put(o)
		return
	}
	t.retained.Add(1)
	// One allocation publishes the trace: the box co-locates the Trace
	// header with its span storage, and is immutable once pushed.
	box := &traceBox{}
	copy(box.spans[:], o.spans[:o.nspans])
	box.trace = Trace{
		ID:          o.id,
		Span:        o.span,
		Parent:      o.parent,
		Sampled:     o.sampled,
		Kind:        o.kind,
		Client:      o.client,
		Oid:         o.oid,
		Start:       o.start,
		End:         end,
		Err:         o.err,
		Unconfirmed: o.unconf,
		Group:       o.group,
		Spans:       box.spans[:o.nspans],
		Faults:      faults,
	}
	t.push(&box.trace)
	if th > 0 && end-o.start >= th {
		t.logSlow(&box.trace)
	}
	*o = Op{}
	t.pool.Put(o)
}

// traceBox is Finish's single allocation: Trace.Spans points into the
// inline array, so one object carries the whole published record.
type traceBox struct {
	trace Trace
	spans [maxSpans]Span
}
