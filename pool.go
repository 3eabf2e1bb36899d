package precursor

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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
// ErrTimeout, and with none live at once with ErrClosed, rather than
// blocking, so a cluster breaker sitting above the pool can trip.
type Pool struct {
	// idle holds the connections no operation has borrowed; its capacity
	// is the pool's size, so a release never blocks. Sends happen under mu,
	// the drain in Close as well, so Close closes every connection released
	// before it and a release after it finds the pool closed.
	idle     chan *Client
	done     chan struct{} // closed by Close: wakes every waiting acquire
	mu       sync.Mutex
	live     int // connections not discarded: borrowed or idle
	closed   bool
	timeouts map[*Client]int // consecutive timed-out ops per connection (see finish)
	// emptied is closed, and replaced, when the last live connection is
	// discarded: it wakes every acquire waiting on idle. Guarded by mu.
	emptied chan struct{}

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
	// Successes deposit into earn: budget itself, or nil for a pool a
	// cluster client dialed, which spends the client's bucket and leaves
	// the deposits to the client, one per op the client completes.
	budget, earn *overload.RetryBudget
}

// ErrPoolClosed is returned by operations on a closed pool.
var ErrPoolClosed = core.ErrPoolClosed

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
	p := newPool(size, wait)
	p.timeouts = make(map[*Client]int)
	p.redial = func() (*Client, error) { return Dial(addr, cfg) }
	for i := 0; i < size; i++ {
		c, err := Dial(addr, cfg)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("pool connection %d: %w", i, err)
		}
		p.idle <- c
		p.live++
	}
	return p, nil
}

// newPool is an empty pool of size connections.
func newPool(size int, wait time.Duration) *Pool {
	budget := overload.NewRetryBudget(overload.DefaultBudgetMax, overload.DefaultBudgetRatio)
	return &Pool{
		idle:        make(chan *Client, size),
		done:        make(chan struct{}),
		emptied:     make(chan struct{}),
		waitTimeout: wait,
		budget:      budget,
		earn:        budget,
	}
}

// NewPoolFromClients pools already-connected clients (e.g. over the
// in-process fabric). The pool takes ownership: Close closes them.
func NewPoolFromClients(clients []*Client) (*Pool, error) {
	if len(clients) == 0 {
		return nil, errors.New("precursor: pool needs at least one client")
	}
	p := newPool(len(clients), defaultAcquireWait)
	for _, c := range clients {
		p.idle <- c
	}
	p.live = len(clients)
	return p, nil
}

// errNoneLive is acquire's answer when every connection is dead and
// awaiting redial — at entry, or while it waits: waiting out the acquire
// timeout would stall the caller on a server that is known-unreachable
// right now. Failing fast with ErrClosed trips a breaker above the pool
// at once; the background redial loops restore capacity when the server
// returns.
var errNoneLive = fmt.Errorf("precursor: pool has no live connections: %w", ErrClosed)

// acquire borrows a connection, waiting if all are busy — for at most
// the pool's timeout, and never past ctx's deadline or cancellation.
func (p *Pool) acquire(ctx context.Context) (*Client, error) {
	p.mu.Lock()
	closed, dead, emptied := p.closed, p.redial != nil && p.live == 0, p.emptied
	p.mu.Unlock()
	switch {
	case closed:
		return nil, ErrPoolClosed
	case dead:
		return nil, errNoneLive
	}
	select {
	case c := <-p.idle:
		return c, nil
	default:
	}
	deadline, err := core.OpDeadline(ctx, p.waitTimeout)
	if err == nil {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		select {
		case c := <-p.idle:
			return c, nil
		case <-p.done:
			return nil, ErrPoolClosed
		case <-emptied:
			return nil, errNoneLive
		case <-timer.C:
			err = ErrTimeout
		case <-ctx.Done():
			err = core.CtxErr(ctx)
		}
	}
	return nil, fmt.Errorf("precursor: pool acquire: %w", err)
}

// releaseLocked hands c back to the idle channel and reports true, or
// reports false once the pool is closed: the caller then closes c. Called
// with mu held.
func (p *Pool) releaseLocked(c *Client) bool {
	if p.closed {
		return false
	}
	p.idle <- c
	return true
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
	if dead {
		delete(p.timeouts, c)
		if p.live--; p.live == 0 {
			close(p.emptied)
			p.emptied = make(chan struct{})
		}
	}
	kept := !dead && p.releaseLocked(c)
	redial := dead && !p.closed
	p.mu.Unlock()
	if !kept {
		_ = c.Close()
	}
	if redial {
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
		wait, ok := p.claimRedial()
		if !ok {
			select {
			case <-p.done:
				return
			case <-time.After(wait):
			}
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
		kept := p.releaseLocked(c)
		if kept {
			p.live++
		}
		p.mu.Unlock()
		if !kept {
			_ = c.Close()
		}
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
// deadline. A spent or cancelled ctx — before a connection is borrowed
// or during a backoff — fails with ErrTimeout: nothing more is sent,
// nothing unconfirmed.
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
			p.earn.OnSuccess()
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
		if err := core.Pause(ctx, sleep); err != nil {
			return err
		}
		backoff *= 2
	}
}

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
	return p.live
}

// Close closes every pooled connection. In-flight operations finish
// first: only idle connections are closed here, and a borrowed
// connection is closed when its operation releases it. Waiters are woken
// with ErrPoolClosed. Close is idempotent — extra calls return nil.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	close(p.done)
	var firstErr error
	for {
		select {
		case c := <-p.idle:
			if err := c.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		default:
			return firstErr
		}
	}
}
