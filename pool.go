package precursor

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"precursor/internal/core"
	"precursor/internal/overload"
)

// Pool multiplexes operations over several Precursor client connections.
//
// The protocol allows one outstanding operation per connection (each
// client owns an oid sequence and its rings, §3.7), so applications that
// want concurrency open several connections — exactly how the paper's
// evaluation runs 50 clients. Pool packages that pattern: Get/Put/Delete
// borrow an idle connection and return it afterwards, so the pool is safe
// for concurrent use by many goroutines.
//
// A pool built with NewPool self-heals: when an operation fails with
// ErrClosed, or a connection's operations time out wedgedAfter times in
// a row, the connection is discarded and a background goroutine redials
// (with backoff) to restore capacity. While capacity is degraded,
// acquire waits are bounded — an operation that cannot borrow a
// connection within the pool's timeout or its ctx's deadline fails with
// an error wrapping ErrTimeout rather than blocking forever, so a
// cluster breaker sitting above the pool can trip instead of hanging.
type Pool struct {
	mu       sync.Mutex
	free     []*Client
	all      []*Client
	waiters  []chan *Client
	closed   bool
	timeouts map[*Client]int // consecutive timed-out ops per connection (see finish)

	// redial re-establishes one connection after a dead one is discarded
	// (nil for NewPoolFromClients: the pool cannot re-dial in-process
	// fabric clients, so dead connections are simply re-pooled as before).
	redial func() (*Client, error)
	// waitTimeout bounds acquire when every connection is busy or dead.
	waitTimeout time.Duration

	// Redial pacing is pool-wide, not per-loop: when a server dies it
	// takes every pooled connection with it, spawning one redial loop per
	// corpse — without shared state those loops dial in lockstep and
	// hammer the server the moment it tries to come back. claimRedial
	// serializes attempts and grows one shared, jittered backoff.
	redialMu       sync.Mutex
	redialFailures int       // consecutive failed attempts, pool-wide
	nextRedial     time.Time // earliest next permitted attempt

	// budget is the pool-wide retry budget: every RETRY_LATER retry
	// spends a token, every success deposits a fraction of one, so the
	// pool's retry amplification is bounded (≤ ~1.1×) no matter how
	// hard the shard sheds. Shared across all the pool's connections.
	budget *overload.RetryBudget
}

// ErrPoolClosed is returned by operations on a closed pool.
var ErrPoolClosed = errors.New("precursor: pool closed")

// defaultAcquireWait bounds acquire when DialConfig.Timeout is unset.
const defaultAcquireWait = 5 * time.Second

// NewPool dials size connections with Dial and pools them.
func NewPool(addr string, cfg DialConfig, size int) (*Pool, error) {
	if size <= 0 {
		size = 1
	}
	wait := cfg.Timeout
	if wait <= 0 {
		wait = defaultAcquireWait
	}
	p := &Pool{
		timeouts:    make(map[*Client]int),
		redial:      func() (*Client, error) { return Dial(addr, cfg) },
		waitTimeout: wait,
		budget:      overload.NewRetryBudget(overload.DefaultBudgetMax, overload.DefaultBudgetRatio),
	}
	for i := 0; i < size; i++ {
		c, err := Dial(addr, cfg)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("pool connection %d: %w", i, err)
		}
		p.free = append(p.free, c)
		p.all = append(p.all, c)
	}
	return p, nil
}

// NewPoolFromClients pools already-connected clients (e.g. over the
// in-process fabric). The pool takes ownership: Close closes them.
func NewPoolFromClients(clients []*Client) (*Pool, error) {
	if len(clients) == 0 {
		return nil, errors.New("precursor: pool needs at least one client")
	}
	p := &Pool{
		waitTimeout: defaultAcquireWait,
		budget:      overload.NewRetryBudget(overload.DefaultBudgetMax, overload.DefaultBudgetRatio),
	}
	p.free = append(p.free, clients...)
	p.all = append(p.all, clients...)
	return p, nil
}

// acquire borrows a connection, waiting if all are busy — for at most
// the pool's timeout, and never past ctx's deadline or cancellation.
func (p *Pool) acquire(ctx context.Context) (*Client, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if p.redial != nil && len(p.all) == 0 {
		// Every connection is dead and awaiting redial: waiting out the
		// acquire timeout would stall the caller on a server that is
		// known-unreachable right now. Fail fast with ErrClosed so a
		// breaker above the pool trips immediately; the background
		// redial loops restore capacity when the server returns.
		p.mu.Unlock()
		return nil, fmt.Errorf("precursor: pool has no live connections: %w", ErrClosed)
	}
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	ch := make(chan *Client, 1)
	p.waiters = append(p.waiters, ch)
	p.mu.Unlock()

	deadline, err := core.OpDeadline(ctx, p.waitTimeout)
	if err == nil {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		select {
		case c, ok := <-ch:
			if !ok || c == nil {
				return nil, ErrPoolClosed
			}
			return c, nil
		case <-timer.C:
			err = ErrTimeout
		case <-ctx.Done():
			err = core.CtxErr(ctx)
		}
	}

	// Gave up: retract the waiter entry. A release may hand us a
	// connection concurrently — if it already did (our entry is gone),
	// take the connection from the channel and put it back in rotation.
	p.mu.Lock()
	i := slices.Index(p.waiters, ch)
	if i >= 0 {
		p.waiters = slices.Delete(p.waiters, i, i+1)
	}
	p.mu.Unlock()
	if i < 0 {
		if c, ok := <-ch; ok && c != nil {
			p.mu.Lock()
			p.release(c)
		}
	}
	return nil, fmt.Errorf("precursor: pool acquire: %w", err)
}

// release returns a connection, handing it to a waiter if any. If the
// pool was closed while the connection was borrowed, the connection is
// closed here instead of being re-pooled. Called with mu held (every
// caller has state of its own to settle under it first); unlocks it.
func (p *Pool) release(c *Client) {
	if p.closed {
		p.mu.Unlock()
		_ = c.Close()
		return
	}
	if len(p.waiters) > 0 {
		ch := p.waiters[0]
		p.waiters = p.waiters[1:]
		p.mu.Unlock()
		ch <- c
		return
	}
	p.free = append(p.free, c)
	p.mu.Unlock()
}

// wedgedAfter is how many operations in a row a connection may time out,
// with none answered between, before the pool stops trusting it.
const wedgedAfter = 3

// finish returns a connection after an operation. A connection whose
// operation failed with ErrClosed is dead protocol-wise (its session and
// oid sequence are gone), and one whose operations only ever time out is
// wedged (credits or replies lost for good): instead of re-pooling either
// we discard it and redial a replacement in the background. ownTimeout
// marks an operation that ran out its connection's own Timeout — a
// timeout the caller's shorter ctx deadline imposed says nothing about
// the connection.
func (p *Pool) finish(c *Client, err error, ownTimeout bool) {
	p.mu.Lock()
	dead := false
	if p.redial != nil {
		dead = errors.Is(err, ErrClosed)
		if ownTimeout {
			p.timeouts[c]++
			dead = dead || p.timeouts[c] >= wedgedAfter
		} else if len(p.timeouts) > 0 {
			delete(p.timeouts, c)
		}
	}
	if !dead {
		p.release(c)
		return
	}
	delete(p.timeouts, c)
	for i, pc := range p.all {
		if pc == c {
			p.all = append(p.all[:i], p.all[i+1:]...)
			break
		}
	}
	stopped := p.closed
	p.mu.Unlock()
	_ = c.Close()
	if !stopped {
		go p.redialLoop()
	}
}

// Redial backoff bounds: attempts start redialBase apart and double per
// consecutive pool-wide failure up to redialMax.
const (
	redialBase     = 50 * time.Millisecond
	redialMax      = 2 * time.Second
	redialShiftCap = 6 // 50ms << 6 already exceeds redialMax
)

// claimRedial grants or defers one redial attempt. A granted claim
// (ok=true) immediately pushes the next permitted attempt out by the
// current backoff, so concurrent redial loops take turns; a deferred
// claim returns how long to wait before asking again. The backoff is
// jittered ±50% to decorrelate pools that lost their server at the same
// moment (every client of a crashed shard otherwise retries in phase).
func (p *Pool) claimRedial() (wait time.Duration, ok bool) {
	p.redialMu.Lock()
	defer p.redialMu.Unlock()
	now := time.Now()
	if now.Before(p.nextRedial) {
		return p.nextRedial.Sub(now), false
	}
	d := redialBase << uint(min(p.redialFailures, redialShiftCap))
	if d > redialMax {
		d = redialMax
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	p.nextRedial = now.Add(d)
	return 0, true
}

// redialLoop restores one discarded connection, pacing attempts through
// the pool's shared backoff, until it succeeds or the pool closes.
func (p *Pool) redialLoop() {
	for {
		p.mu.Lock()
		stopped := p.closed
		p.mu.Unlock()
		if stopped {
			return
		}
		wait, ok := p.claimRedial()
		if !ok {
			time.Sleep(wait)
			continue
		}
		c, err := p.redial()
		if err != nil {
			p.redialMu.Lock()
			p.redialFailures++
			p.redialMu.Unlock()
			continue
		}
		p.redialMu.Lock()
		p.redialFailures = 0
		p.redialMu.Unlock()
		p.mu.Lock()
		if !p.closed {
			p.all = append(p.all, c)
		}
		p.release(c)
		return
	}
}

// maxShedRetries bounds how many times one pool operation re-attempts
// after RETRY_LATER, even when the budget would fund more.
const maxShedRetries = 3

// do is the pool's one borrow path: check ctx, borrow a connection, run
// op on it, return it — retrying admission-control sheds under the
// pool's shared retry budget, each attempt on a freshly borrowed
// connection. A shed is safe to retry for reads AND writes — the sealed
// RETRY_LATER guarantees the server did not apply the op — but each
// retry spends a budget token; when the bucket is empty the shed error
// is returned as-is, which is what bounds fleet-wide retry
// amplification. Between attempts the server's backoff hint (or a small
// default) is honored with jitter, unless it would overrun ctx's
// deadline. A spent or cancelled ctx fails with ErrTimeout before a
// connection is borrowed: nothing sent, nothing unconfirmed.
func (p *Pool) do(ctx context.Context, op func(*Client) error) error {
	backoff := 2 * time.Millisecond
	for attempt := 0; ; attempt++ {
		if err := core.CtxErr(ctx); err != nil {
			return err
		}
		c, err := p.acquire(ctx)
		if err != nil {
			return err
		}
		err = op(c)
		p.finish(c, err, errors.Is(err, ErrTimeout) && core.CtxErr(ctx) == nil)
		if err == nil {
			p.budget.OnSuccess()
			return nil
		}
		if !errors.Is(err, ErrRetryLater) || attempt >= maxShedRetries || !p.budget.TrySpend() {
			return err
		}
		var rl *RetryLaterError
		if errors.As(err, &rl) && rl.Hint > backoff {
			backoff = rl.Hint
		}
		sleep := overload.Jitter(backoff)
		if d, ok := ctx.Deadline(); ok && time.Until(d) < sleep {
			return err
		}
		time.Sleep(sleep)
		backoff *= 2
	}
}

// Budget returns the pool's shared retry budget, for metrics exporters
// and layers (the cluster client) that coordinate their own retries or
// hedges with the pool's.
func (p *Pool) Budget() *overload.RetryBudget { return p.budget }

// Put stores value under key using any idle connection. A RETRY_LATER
// shed is retried under the pool's retry budget (the server guarantees
// a shed write was not applied, so the retry cannot double-apply).
func (p *Pool) Put(key string, value []byte) error {
	return p.PutContext(context.Background(), key, value)
}

// PutContext is Put under ctx (PROTOCOL.md §9): its deadline bounds the
// wait for a connection, the shed retries and the operation itself, and
// the span ref it carries (WithSpan) travels with whichever connection the
// op borrows — shed retries included, so every attempt lands in one trace.
func (p *Pool) PutContext(ctx context.Context, key string, value []byte) error {
	return p.do(ctx, func(c *Client) error { return c.PutContext(ctx, key, value) })
}

// Get fetches and verifies the value for key. RETRY_LATER sheds are
// retried under the pool's retry budget.
func (p *Pool) Get(key string) ([]byte, error) {
	return p.GetContext(context.Background(), key)
}

// GetContext is Get under ctx (see PutContext).
func (p *Pool) GetContext(ctx context.Context, key string) (v []byte, err error) {
	err = p.do(ctx, func(c *Client) (err error) {
		v, err = c.GetContext(ctx, key)
		return err
	})
	return v, err
}

// Delete removes key. RETRY_LATER sheds are retried under the pool's
// retry budget.
func (p *Pool) Delete(key string) error {
	return p.DeleteContext(context.Background(), key)
}

// DeleteContext is Delete under ctx (see PutContext).
func (p *Pool) DeleteContext(ctx context.Context, key string) error {
	return p.do(ctx, func(c *Client) error { return c.DeleteContext(ctx, key) })
}

// Batch executes ops as one multi-op frame — one seal, one ring
// doorbell — over a single borrowed connection, returning per-op
// results in request order. The error is batch-level; per-op outcomes
// (including ErrUnconfirmed attribution for writes whose fate is
// unknown) are in the results. See Client.Batch.
// Batches shed by the admission gate fail as a unit with a batch-level
// RetryLaterError — nothing was applied — so the whole frame is
// retried under the budget like a single op.
func (p *Pool) Batch(ops []BatchOp) ([]BatchResult, error) {
	return p.BatchContext(context.Background(), ops)
}

// BatchContext is Batch under ctx (see PutContext): the parent's
// remaining budget bounds the frame's deadline, and the whole frame —
// and the server-side batch span applying it — stitches under the span
// ref ctx carries.
func (p *Pool) BatchContext(ctx context.Context, ops []BatchOp) (results []BatchResult, err error) {
	err = p.do(ctx, func(c *Client) (err error) {
		results, err = c.BatchContext(ctx, ops)
		return err
	})
	return results, err
}

// Size returns the number of pooled connections (live ones — dead
// connections awaiting redial are not counted).
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.all)
}

// Close closes every pooled connection. In-flight operations finish
// first: only idle connections are closed here, and a borrowed
// connection is closed when its operation releases it. Waiters are woken
// with ErrPoolClosed. Close is idempotent — extra calls return nil.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	waiters := p.waiters
	p.waiters = nil
	free := p.free
	p.free = nil
	p.mu.Unlock()

	for _, ch := range waiters {
		close(ch)
	}
	var firstErr error
	for _, c := range free {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
