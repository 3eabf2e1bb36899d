// Package overload implements Precursor's overload-protection
// primitives: the server-side admission gate that sheds excess load
// before it is applied, and the token-bucket retry budget that bounds
// fleet-wide retry amplification.
//
// Precursor's servers never coordinate (the paper's client-centric
// core claim), so when a shard saturates only two parties can stop
// the melt: the enclave, by refusing work before paying the apply,
// payload and reply cost of a doomed frame, and the clients, by backing
// off without amplifying. This package supplies both halves; the
// wiring lives in internal/core (the server's gate), the pool, and
// internal/cluster (hedged reads).
package overload

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a request frame for admission purposes. Writes are
// preferred over reads when shedding: a shed read costs the client one
// cheap idempotent retry, while a shed write stalls durability — so
// reads shed at a lower pressure threshold.
type Kind uint8

// Operation kinds, in shed-preference order.
const (
	// KindRead is a frame of idempotent reads (gets only) — first to
	// shed.
	KindRead Kind = iota
	// KindWrite is a frame carrying a put or delete — sheds only above
	// the full pressure threshold.
	KindWrite
)

// GateConfig configures a server admission Gate. The zero value takes
// the defaults below via NewGate.
type GateConfig struct {
	// MaxInflight caps concurrently admitted operations across the
	// server's trusted threads. 0 means DefaultMaxInflight; negative
	// disables the cap.
	MaxInflight int
	// MaxQueueDelay is the estimated queue-delay ceiling for writes:
	// when backlog × service-time-EWMA exceeds it, the gate sheds. 0
	// means DefaultMaxQueueDelay.
	MaxQueueDelay time.Duration
	// ReadFraction scales MaxQueueDelay down for reads so they shed
	// first (write preference). 0 means DefaultReadFraction; values are
	// clamped to (0, 1].
	ReadFraction float64
	// BaseHint is the minimum backoff hint returned with a shed. 0
	// means DefaultBaseHint.
	BaseHint time.Duration
	// MaxHint caps the backoff hint (sheds under deep backlogs suggest
	// proportionally longer waits, up to this). 0 means DefaultMaxHint.
	MaxHint time.Duration
}

// Gate defaults, chosen so an unconfigured gate only engages under
// genuine pressure: tens of milliseconds of estimated queue delay on a
// path whose per-op service time is single-digit microseconds.
const (
	// DefaultMaxInflight is the default concurrently-admitted cap.
	DefaultMaxInflight = 4096
	// DefaultMaxQueueDelay is the default write queue-delay ceiling.
	DefaultMaxQueueDelay = 20 * time.Millisecond
	// DefaultReadFraction is the default read threshold as a fraction
	// of MaxQueueDelay.
	DefaultReadFraction = 0.5
	// DefaultBaseHint is the default minimum shed backoff hint.
	DefaultBaseHint = 2 * time.Millisecond
	// DefaultMaxHint is the default maximum shed backoff hint.
	DefaultMaxHint = 250 * time.Millisecond
)

func (c GateConfig) withDefaults() GateConfig {
	if c.MaxInflight == 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.MaxQueueDelay <= 0 {
		c.MaxQueueDelay = DefaultMaxQueueDelay
	}
	if c.ReadFraction <= 0 || c.ReadFraction > 1 {
		c.ReadFraction = DefaultReadFraction
	}
	if c.BaseHint <= 0 {
		c.BaseHint = DefaultBaseHint
	}
	if c.MaxHint < c.BaseHint {
		c.MaxHint = DefaultMaxHint
	}
	return c
}

// Gate is the server-side admission controller. It is deliberately
// cheap — a handful of atomic loads per decision — because it runs on
// every frame, once its control is open and before any op is applied.
// All methods are safe for concurrent use by the server's trusted
// threads.
type Gate struct {
	cfg      GateConfig
	draining atomic.Bool
	inflight atomic.Int64
	// svcEWMA is the exponentially-weighted service-time average in
	// nanoseconds (gain 1/8), fed by Done. Combined with the sender
	// backlog it yields the queue-delay estimate that drives shedding.
	svcEWMA atomic.Int64

	admitted   atomic.Uint64
	shedReads  atomic.Uint64
	shedWrites atomic.Uint64
}

// NewGate returns an admission gate with cfg's thresholds (zero fields
// take defaults).
func NewGate(cfg GateConfig) *Gate {
	return &Gate{cfg: cfg.withDefaults()}
}

// Admit decides whether a frame of the given kind may proceed.
// backlog is the current depth of the server's reply queue (the
// cheapest congestion signal the trusted thread has). On admission
// it returns (true, 0) and the caller MUST call Done when the op
// finishes; on shed it returns (false, hint) where hint is the
// suggested client backoff.
func (g *Gate) Admit(kind Kind, backlog int) (bool, time.Duration) {
	if g == nil {
		return true, 0
	}
	if g.draining.Load() {
		g.shed(kind)
		return false, g.cfg.MaxHint
	}
	if g.cfg.MaxInflight > 0 && g.inflight.Load() >= int64(g.cfg.MaxInflight) {
		g.shed(kind)
		return false, g.hint(g.cfg.MaxQueueDelay)
	}
	est := time.Duration(backlog) * time.Duration(g.svcEWMA.Load())
	limit := g.cfg.MaxQueueDelay
	if kind == KindRead {
		limit = time.Duration(float64(limit) * g.cfg.ReadFraction)
	}
	if est > limit {
		g.shed(kind)
		return false, g.hint(est)
	}
	g.inflight.Add(1)
	g.admitted.Add(1)
	return true, 0
}

// Done records the service time of an admitted operation and releases
// its in-flight slot. Call exactly once per successful Admit.
func (g *Gate) Done(service time.Duration) {
	if g == nil {
		return
	}
	g.inflight.Add(-1)
	if service < 0 {
		return
	}
	// EWMA with gain 1/8, lock-free: a lost race skews the estimate by
	// one sample, which the next sample corrects.
	old := g.svcEWMA.Load()
	g.svcEWMA.Store(old - old/8 + int64(service)/8)
}

// SetDraining toggles drain mode: while draining the gate sheds every
// operation (RETRY_LATER with the maximum hint) so in-flight work can
// finish and the server can seal and exit.
func (g *Gate) SetDraining(v bool) {
	if g != nil {
		g.draining.Store(v)
	}
}

// Draining reports whether the gate is in drain mode.
func (g *Gate) Draining() bool { return g != nil && g.draining.Load() }

// hint converts an estimated queue delay into a client backoff
// suggestion, clamped to [BaseHint, MaxHint] with the delay itself as
// the midpoint scale.
func (g *Gate) hint(est time.Duration) time.Duration {
	h := est
	if h < g.cfg.BaseHint {
		h = g.cfg.BaseHint
	}
	if h > g.cfg.MaxHint {
		h = g.cfg.MaxHint
	}
	return h
}

func (g *Gate) shed(kind Kind) {
	if kind == KindRead {
		g.shedReads.Add(1)
	} else {
		g.shedWrites.Add(1)
	}
}

// GateStats is a snapshot of a gate's admission counters.
type GateStats struct {
	// Admitted counts frames that passed the gate.
	Admitted uint64
	// ShedReads and ShedWrites count shed frames by kind.
	ShedReads, ShedWrites uint64
	// Inflight is the current number of admitted, unfinished ops.
	Inflight int64
	// ServiceEWMA is the current service-time estimate.
	ServiceEWMA time.Duration
	// Draining reports drain mode.
	Draining bool
}

// Stats returns a consistent-enough snapshot of the gate's counters
// (each field is individually atomic).
func (g *Gate) Stats() GateStats {
	if g == nil {
		return GateStats{}
	}
	return GateStats{
		Admitted:    g.admitted.Load(),
		ShedReads:   g.shedReads.Load(),
		ShedWrites:  g.shedWrites.Load(),
		Inflight:    g.inflight.Load(),
		ServiceEWMA: time.Duration(g.svcEWMA.Load()),
		Draining:    g.draining.Load(),
	}
}

// RetryBudget is a token bucket bounding retry (and hedge)
// amplification: each success deposits Ratio tokens, each retry spends
// one, so sustained retry traffic cannot exceed Ratio × the success
// rate — fleet-wide amplification stays ≤ 1+Ratio even when every
// client is saturated. Shared per pool (all connections to one shard),
// or by a cluster client and every pool it dials. A retry may spend
// the standing allowance the bucket starts with, so a cold client's
// isolated failures retry at once; a hedge may spend only what OnSuccess
// deposited, so hedges never exceed Ratio × those successes, from the
// first op on. Safe for concurrent use.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	earned float64 // the part of tokens OnSuccess deposited: all a hedge may spend
	max    float64
	ratio  float64

	granted atomic.Uint64
	denied  atomic.Uint64
}

// Budget defaults: amplification ≤ 1.1×, with a small standing
// allowance so isolated failures retry immediately.
const (
	// DefaultBudgetRatio is the default tokens-per-success deposit.
	DefaultBudgetRatio = 0.1
	// DefaultBudgetMax is the default bucket capacity.
	DefaultBudgetMax = 32
)

// NewRetryBudget returns a budget with the given capacity and
// per-success deposit ratio (zero/negative take defaults). The bucket
// starts full of standing allowance, so cold-start retries are not
// starved; nothing in it is earned yet, so a cold client does not hedge.
func NewRetryBudget(max, ratio float64) *RetryBudget {
	if max <= 0 {
		max = DefaultBudgetMax
	}
	if ratio <= 0 {
		ratio = DefaultBudgetRatio
	}
	return &RetryBudget{tokens: max, max: max, ratio: ratio}
}

// OnSuccess deposits the per-success ratio into the bucket.
func (b *RetryBudget) OnSuccess() { b.deposit(true) }

// OnWriteSuccess deposits the per-success ratio as standing allowance: a
// write's success funds retries, but not hedges, which are reads and spend
// only what reads earned.
func (b *RetryBudget) OnWriteSuccess() { b.deposit(false) }

// deposit adds one success's share, to the earned share too when earned.
func (b *RetryBudget) deposit(earned bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens = min(b.tokens+b.ratio, b.max)
	if earned {
		b.earned += b.ratio
	}
	b.earned = min(b.earned, b.tokens)
	b.mu.Unlock()
}

// TrySpend attempts to spend one token for a retry, standing allowance
// first. It reports whether the spend was granted; when it is not, the
// caller must give up (return the underlying error) rather than retry —
// that refusal is what bounds the storm.
func (b *RetryBudget) TrySpend() bool { return b.spend(false) }

// TrySpendEarned is TrySpend for a hedge: it spends only a token that
// successes deposited.
func (b *RetryBudget) TrySpendEarned() bool { return b.spend(true) }

// spend takes one token, from the earned share alone when earnedOnly.
func (b *RetryBudget) spend(earnedOnly bool) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	have := b.tokens
	if earnedOnly {
		have = b.earned
	}
	// Deposits are sums of Ratio: ten of 0.1 make 0.9999999999999999.
	ok := have >= 1-1e-9
	if ok {
		b.tokens = max(b.tokens-1, 0)
		if earnedOnly {
			b.earned--
		}
		b.earned = max(min(b.earned, b.tokens), 0)
	}
	b.mu.Unlock()
	if ok {
		b.granted.Add(1)
	} else {
		b.denied.Add(1)
	}
	return ok
}

// Tokens returns the current bucket level.
func (b *RetryBudget) Tokens() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// BudgetStats is a snapshot of a retry budget's counters.
type BudgetStats struct {
	// Tokens is the current bucket level.
	Tokens float64
	// Granted and Denied count TrySpend outcomes; Denied > 0 means the
	// budget actively suppressed retry amplification.
	Granted, Denied uint64
}

// Stats returns the budget's level and spend counters.
func (b *RetryBudget) Stats() BudgetStats {
	if b == nil {
		return BudgetStats{}
	}
	b.mu.Lock()
	tokens := b.tokens
	b.mu.Unlock()
	return BudgetStats{
		Tokens:  tokens,
		Granted: b.granted.Load(),
		Denied:  b.denied.Load(),
	}
}

// Jitter spreads d over [d/2, 3d/2), the repo's standard decorrelation
// for backoffs and probe intervals (half the base plus a uniformly
// random base). It exists here so every layer jitters the same way.
func Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}
