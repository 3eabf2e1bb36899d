package core

import (
	"context"
	"crypto/ecdsa"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"precursor/internal/cryptox"
	"precursor/internal/obs"
	"precursor/internal/rdma"
	"precursor/internal/ringbuf"
	"precursor/internal/sgx"
	"precursor/internal/wire"
)

// ClientConfig configures a Precursor client connection.
type ClientConfig struct {
	// Conn is the client's queue pair to the server; Device is the local
	// RDMA device used to register the response ring. Both are required.
	Conn   rdma.Conn
	Device *rdma.Device
	// PlatformKey and Measurement pin the expected server enclave for
	// remote attestation (§3.6). Both are required.
	PlatformKey *ecdsa.PublicKey
	Measurement sgx.Measurement
	// RespSlots sets the response ring's slot count (default
	// DefaultRingSlots); its slots are DefaultSlotSize bytes, as the
	// server's request ring's are.
	RespSlots int
	// Timeout is the per-operation deadline: it covers the whole
	// operation — waiting for ring credit, the response poll loop, and
	// (for reads) every retry attempt — so retried sends never stretch
	// an operation past one Timeout.
	Timeout time.Duration
	// ReadRetries bounds the extra attempts an idempotent read — a Get,
	// or a Batch of only gets — makes after a transient failure (timeout
	// slice, replay-rejected oid, malformed response), all within
	// Timeout. Each attempt uses a fresh oid. 0 means DefaultReadRetries;
	// negative disables retries. A shed (ErrRetryLater) is returned, for
	// a Pool to retry under its budget. Non-idempotent writes are never
	// retried — they fail with a typed error joined with ErrUnconfirmed.
	ReadRetries int
	// RetryBase is the base backoff before a frame is sent again — a read
	// retry, a shed repair op — (default 2ms), doubled per attempt with
	// ±50% jitter; a shed's hint, when longer, takes its place.
	RetryBase time.Duration
	// Tracer records per-stage latency spans and recent operation traces
	// (a SideClient obs.Tracer). Nil disables tracing. A Tracer is safe
	// to share across clients (e.g. every connection of a pool), which
	// aggregates their stage latencies; Client.StatsStruct then reports
	// the shared snapshot. Spans never carry keys, values or key
	// material — see OBSERVABILITY.md.
	Tracer *obs.Tracer
}

func (c *ClientConfig) withDefaults() ClientConfig {
	out := *c
	if out.RespSlots <= 0 {
		out.RespSlots = DefaultRingSlots
	}
	if out.Timeout <= 0 {
		out.Timeout = 5 * time.Second
	}
	if out.ReadRetries == 0 {
		out.ReadRetries = DefaultReadRetries
	} else if out.ReadRetries < 0 {
		out.ReadRetries = 0
	}
	if out.RetryBase <= 0 {
		out.RetryBase = 2 * time.Millisecond
	}
	return out
}

// Client is a Precursor client: the "precursor" of the paper's title, the
// party that performs the payload cryptography (Algorithm 1).
type Client struct {
	mu sync.Mutex // one outstanding operation per client, as in YCSB

	cfg        ClientConfig
	conn       rdma.Conn
	device     *rdma.Device
	id         uint32
	ad         [4]byte
	aead       *cryptox.AEAD
	oid        uint64
	reqWriter  *ringbuf.Writer
	respReader *ringbuf.Reader
	respRing   *rdma.MemoryRegion
	reqCredit  *rdma.MemoryRegion
	closed     bool
	serverEnc  bool // the server announced the server-encryption placement
	inlineMax  int  // values shorter than this travel inline (§5.2): the server's announced bound, 0 when it has no inline mode

	// Per-connection scratch (all guarded by mu), shared by every frame so
	// the steady-state op path allocates nothing but the block of values a
	// frame of gets hands back. Each buffer is valid only until the next use named here;
	// nothing returned to the user aliases any of them.
	bctl     wire.BatchControl      // request control, until encoded
	brep     wire.BatchReply        // decoded reply control; aliases ctlBuf
	keyBuf   []byte                 // request key bytes, until the control is encoded
	ctlBuf   []byte                 // request control plaintext until sealed, then the opened reply control
	frameBuf []byte                 // request frame, until the ring write returns
	pollBuf  []byte                 // reply frame, until the next PollInto
	kinds    []BatchOpKind          // the last frame's op kinds, until the next frame
	opKeys   []cryptox.OperationKey // the frame's K_operations, until sealed into it
	payload  cryptox.PayloadCipher
	payAD    payloadAD

	// wait is the back-off of every wait on this connection, for a reply
	// and for request-ring credit alike. Guarded by mu.
	wait ringbuf.Ladder

	// Stats. completed counts the ops that succeeded, by kind.
	completed           [BatchDelete + 1]uint64
	batches, batchedOps uint64
	integrityFailures   uint64
	retries             uint64
	retryLaters         uint64
	badFrames           uint64
	staleFrames         uint64
	unauthStatuses      uint64
}

// Connect performs remote attestation against the server enclave, derives
// K_session, exchanges ring-buffer memory windows, and returns a ready
// client (§3.6).
func Connect(cfg ClientConfig) (*Client, error) {
	c := cfg.withDefaults()
	if c.Conn == nil || c.Device == nil {
		return nil, fmt.Errorf("precursor: Conn and Device are required")
	}
	if c.PlatformKey == nil {
		return nil, fmt.Errorf("precursor: PlatformKey is required for attestation")
	}

	cl := &Client{cfg: c, conn: c.Conn, device: c.Device}
	cl.respRing = c.Device.RegisterMemory(
		ringbuf.RingBytes(c.RespSlots, DefaultSlotSize), rdma.PermRemoteWrite)
	cl.reqCredit = c.Device.RegisterMemory(ringbuf.CreditBytes, rdma.PermRemoteWrite)
	cl.wait.Spin, cl.wait.Sleep, cl.wait.Adaptive = ringbuf.WaiterSpin, ringbuf.MinSleep, true
	if c.Conn.PostBounded() {
		cl.wait.Yield = ringbuf.WaiterYield
	} else {
		// The reply and the credit are written by the fabric's agent, which
		// wakes the wait: a spin would only hold a P the agent needs.
		cl.wait.Spin, cl.wait.Wake, cl.wait.Sleep = 0, make(chan struct{}, 1), ringbuf.ParkCap
		cl.respRing.Arm(cl.wait.Wake)
		cl.reqCredit.Arm(cl.wait.Wake)
	}

	welcome, aead, err := attest(c.Conn, helloMsg{
		RespRingRKey: cl.respRing.RKey(), RespSlots: c.RespSlots, RespSlotSize: DefaultSlotSize,
		ReqCreditRKey: cl.reqCredit.RKey(),
	}, c.PlatformKey, c.Measurement, time.Now().Add(c.Timeout))
	if err != nil {
		return nil, err
	}
	cl.aead, cl.id, cl.serverEnc = aead, welcome.ClientID, welcome.ServerEncryption
	// Not covered by the quote: a bound raised by the host only has values refused.
	cl.inlineMax = min(welcome.InlineMax, DefaultInlineMax)
	binary.LittleEndian.PutUint32(cl.ad[:], cl.id)

	cl.reqWriter, err = ringbuf.NewWriter(ringbuf.WriterConfig{
		Conn: c.Conn, RingRKey: welcome.ReqRingRKey,
		Slots: welcome.ReqSlots, SlotSize: welcome.ReqSlotSize,
		Credit: cl.reqCredit,
	})
	if err != nil {
		return nil, err
	}
	cl.respReader, err = ringbuf.NewReader(ringbuf.ReaderConfig{
		Ring: cl.respRing, Slots: c.RespSlots, SlotSize: DefaultSlotSize,
		Conn: c.Conn, CreditRKey: welcome.RespCreditRKey,
	})
	if err != nil {
		return nil, err
	}
	return cl, nil
}

// ID returns the server-assigned client identifier.
func (c *Client) ID() uint32 { return c.id }

// Put stores value under key (Algorithm 1): encrypt the value under a
// fresh one-time key, MAC the ciphertext, and ship the key material to
// the enclave inside transport-encrypted control data.
//
// Put is not idempotent from the protocol's point of view (a retried oid
// is rejected as a replay), so it is never retried: if the outcome is
// unknown — the request may or may not have been applied — the error
// matches both its cause (ErrTimeout, ErrReplay, ErrBadResponse for a
// malformed reply, or ErrClosed for a connection that died after the send)
// and ErrUnconfirmed. A put that never reached the ring,
// or that the enclave refused under seal, was not applied: its error is
// plain.
func (c *Client) Put(key string, value []byte) error {
	return c.PutContext(context.Background(), key, value)
}

// PutContext is Put under ctx, the one carrier of a caller's deadline and
// parent span (PROTOCOL.md §9): the operation runs until the earlier of
// Timeout and ctx's deadline; a ctx already spent or cancelled fails with
// ErrTimeout before anything is sent, so nothing is unconfirmed; and the
// span ref ctx carries (obs.WithRef) parents this operation's span and
// rides the sealed control data to the server, whose spans join the trace.
func (c *Client) PutContext(ctx context.Context, key string, value []byte) error {
	_, err := c.one(ctx, BatchOp{Kind: BatchPut, Key: key, Value: value})
	return err
}

// one runs op as a frame of one and returns its outcome. The op and its
// result stay on this stack.
func (c *Client) one(ctx context.Context, op BatchOp) ([]byte, error) {
	ops := [1]BatchOp{op}
	if err := checkOps(ops[:]); err != nil {
		return nil, err
	}
	var res [1]BatchResult
	c.run(ctx, ops[:], res[:])
	return res[0].Value, res[0].Err
}

// run is every call's one way to the wire: it sends ops as one frame and
// resolves each op's outcome into res, under one trace and one deadline,
// the earlier of Timeout and ctx's. A closed connection is ErrClosed and a
// spent ctx ErrTimeout, both before anything is sent. Two kinds of frame
// may be sent again, each time under a fresh oid: one of only gets — reads
// are idempotent — after a transient failure (a shed is none: Pool retries
// it under its budget), up to ReadRetries times in slices of the budget,
// each attempt a cli_attempt span; and a repair op the server shed — a
// shed op was not applied — until the deadline. Writes go once. Between
// attempts it backs off, with the server's shed hint as a floor; a ctx
// done meanwhile ends the call with nothing more sent. It returns the
// frame-level error; an error that kept the frame off the wire is every
// op's outcome, plain.
func (c *Client) run(ctx context.Context, ops []BatchOp, res []BatchResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fail(res, ErrClosed)
	}
	overall, err := OpDeadline(ctx, c.cfg.Timeout)
	if err != nil {
		return fail(res, err)
	}
	op, ref := c.startTrace(frameKind(len(ops), wire.Opcode(ops[0].Kind)), obs.RefFrom(ctx))
	reads, repair := true, ops[0].Kind > BatchDelete
	for i := range ops {
		reads = reads && ops[i].Kind == BatchGet
	}
	tries := 1
	if reads {
		tries += c.cfg.ReadRetries
	}
	now := time.Now()
	slice, backoff := overall.Sub(now)/time.Duration(tries), c.cfg.RetryBase
	for a := 1; ; a++ {
		deadline := overall
		if a < tries && now.Add(slice).Before(overall) {
			deadline = now.Add(slice)
		}
		start := op.Now()
		p := pending{results: res, op: op}
		if err = c.sendLocked(ops, &p, deadline, ref); err == nil {
			err = c.awaitLocked(&p, deadline)
		} else {
			fail(res, err)
		}
		if reads || repair {
			op.AttemptSpan(a, start)
		}
		if !(reads && a < tries && slices.ContainsFunc(res, retryableRead)) && !(repair && errors.Is(err, ErrRetryLater)) {
			break
		}
		var rl *RetryLaterError
		if errors.As(err, &rl) && rl.Hint > backoff {
			backoff = rl.Hint
		}
		// Exponential backoff with ±50% jitter, within the budget.
		sleep := backoff/2 + time.Duration(rand.Int64N(int64(backoff)))
		if !time.Now().Add(sleep).Before(overall) {
			break
		}
		bStart := op.Now()
		if err = Pause(ctx, sleep); err != nil {
			fail(res, err)
			break
		}
		op.Span(obs.CliBackoff, bStart)
		backoff *= 2
		c.retries++
		now = time.Now()
	}
	endTrace(op, c.oid, err, res)
	return err
}

// fail makes err every op's outcome and returns it.
func fail(res []BatchResult, err error) error {
	for i := range res {
		res[i] = BatchResult{Err: err}
	}
	return err
}

// Pause waits d, or until ctx is done: then it returns CtxErr's error. It
// is the backoff between the attempts of every retry loop, so a ctx
// cancelled during a backoff sends nothing more.
func Pause(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return CtxErr(ctx)
	}
}

// endTrace closes a call's trace (nil when tracing is off): its last
// frame's oid, the first failed op's error or else the frame's, and
// unconfirmed iff some op's outcome is ErrUnconfirmed.
func endTrace(op *obs.Op, oid uint64, err error, res []BatchResult) {
	if op == nil {
		return
	}
	op.SetOid(oid)
	opErr := error(nil)
	for i := range res {
		if e := res[i].Err; e != nil {
			if opErr == nil {
				opErr = e
			}
			if errors.Is(e, ErrUnconfirmed) {
				op.MarkUnconfirmed()
			}
		}
	}
	if opErr != nil {
		err = opErr
	}
	op.SetError(err)
	op.Finish()
}

// OpDeadline is the one place an operation's effective deadline is
// computed, at every layer (PROTOCOL.md §9): the earlier of now+timeout
// and ctx's deadline — a caller's budget is never extended and never
// extends the configured one — or CtxErr's error for a ctx already spent.
func OpDeadline(ctx context.Context, timeout time.Duration) (time.Time, error) {
	if err := CtxErr(ctx); err != nil {
		return time.Time{}, err
	}
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	return deadline, nil
}

// CtxErr reports a ctx under which no further work may start —
// cancelled, or its deadline passed — as ErrTimeout joined with the
// ctx's error; nil while the ctx is live. The layers consult it where
// they already consult the deadline — before a send, between retries,
// failover steps and hedges — so what it refuses was never sent and is
// never unconfirmed.
func CtxErr(ctx context.Context) error {
	err := ctx.Err()
	if err == nil {
		// A deadline can pass a moment before the ctx's timer fires.
		if d, ok := ctx.Deadline(); !ok || time.Now().Before(d) {
			return nil
		}
		err = context.DeadlineExceeded
	}
	return fmt.Errorf("%w: %w", ErrTimeout, err)
}

// traceCtx maps the in-flight span ref to its wire encoding (the zero
// ref maps to the zero context, which the control encoder omits).
func traceCtx(r obs.SpanRef) wire.TraceContext {
	return wire.TraceContext{TraceID: r.TraceID, ParentSpan: r.SpanID, Sampled: r.Sampled}
}

// startTrace starts one operation's trace (nil when the tracer is
// disabled) and returns beside it the context to propagate on the wire.
// ref is the upstream trace, if any (the cluster layer's
// quorum/hedge/batch parents): the local op adopts it and propagates its
// own span — or, when this connection has no tracer of its own, the
// caller's ref is forwarded verbatim so correlation survives tracer-less
// hops.
func (c *Client) startTrace(kind string, ref obs.SpanRef) (*obs.Op, obs.SpanRef) {
	tr := c.cfg.Tracer
	if tr == nil {
		return nil, ref
	}
	op := tr.Start(int(c.id), kind)
	op.SetClient(c.id)
	op.AdoptRef(ref)
	return op, op.Ref()
}

// Get fetches and verifies the value for key: the server returns the
// stored ciphertext as-is plus the control data with K_operation; the
// client recomputes the MAC and decrypts (§3.7, "Query data").
//
// Get is idempotent, so transient failures (a timed-out attempt, a
// replay-rejected oid, a malformed response) are retried with a fresh
// oid up to ReadRetries times under bounded exponential backoff with
// jitter — all within the single Timeout deadline. Terminal errors
// (ErrNotFound, ErrIntegrity, ErrClosed, ErrTooLarge) and a shed
// (ErrRetryLater) return immediately.
func (c *Client) Get(key string) ([]byte, error) {
	return c.GetContext(context.Background(), key)
}

// GetContext is Get under ctx — see PutContext. The read-retry budget is
// sliced from what ctx leaves of Timeout, and a ctx cancelled between
// attempts stops the retries.
func (c *Client) GetContext(ctx context.Context, key string) ([]byte, error) {
	return c.one(ctx, BatchOp{Kind: BatchGet, Key: key})
}

// retryableRead reports whether a read's outcome lets it be re-attempted
// with a fresh oid: yes for timeouts, replay rejections (the server saw
// a duplicated frame for this oid — a later oid starts clean) and
// malformed-but-authenticated responses; no for terminal outcomes, nor
// for an admission-control shed, which only a budgeted loop may retry
// (Pool's): retried here as well, one shed read would cost the server
// (1 + ReadRetries) frames per pool attempt.
func retryableRead(r BatchResult) bool {
	err := r.Err
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrReplay) || errors.Is(err, ErrBadResponse)
}

// openValue verifies and decrypts a fetched value under its one-time key
// (the client-side integrity check of Algorithm 1). A nil mac is the base
// mode: the MAC travels behind the ciphertext in the untrusted payload.
// Under server encryption the value comes with no key material, sealed
// under K_session for op idx of frame oid. The plaintext is appended to
// dst, the op's window of its frame's value block: the caller keeps it, so
// it must not live in scratch.
func (c *Client) openValue(dst, opKey, mac, payload []byte, oid uint64, idx int) (value []byte, err error) {
	switch {
	case c.serverEnc != (len(opKey) == 0), mac == nil && len(payload) < wire.MACSize:
		return nil, ErrBadResponse
	case c.serverEnc:
		value, err = c.aead.OpenAppend(dst, payload, c.payAD.of(c.id, oid, idx))
	default:
		if mac == nil {
			payload, mac = payload[:len(payload)-wire.MACSize], payload[len(payload)-wire.MACSize:]
		}
		value, err = c.payload.OpenAppend(dst, (*cryptox.OperationKey)(opKey), payload, mac)
	}
	if err != nil {
		c.integrityFailures++
		return nil, fmt.Errorf("%w: %v", ErrIntegrity, err)
	}
	return value, nil
}

// Delete removes key from the store. Like Put it is non-idempotent and
// never retried; an unknown outcome matches ErrUnconfirmed.
func (c *Client) Delete(key string) error {
	return c.DeleteContext(context.Background(), key)
}

// DeleteContext is Delete under ctx — see PutContext.
func (c *Client) DeleteContext(ctx context.Context, key string) error {
	_, err := c.one(ctx, BatchOp{Kind: BatchDelete, Key: key})
	return err
}

// sendFrameLocked writes c.frameBuf into the request ring, waiting for
// credit until deadline: a stalled ring (credits lost or delayed in
// flight) must surface as the operation's timeout, not a hang, and a
// failed connection as ErrClosed at once — and a frame that failed here
// was never posted, so nothing is unconfirmed. The ring writer copies
// the frame before returning, so the scratch buffers are free for the next
// frame. The wait climbs c.wait, and the wait for the reply carries on from
// there. For tracing, the loop splits into credit wait (all the failed
// TryWrites) and the one successful ring write. The fast path — first
// TryWrite succeeds — reuses t, the previous span's end, as both the
// (zero-length) credit wait and the write start, so it costs one clock
// read; the clock is re-read only on actual credit stalls. It returns the
// ring-write span's end. Called with mu held.
func (c *Client) sendFrameLocked(op *obs.Op, t int64, deadline time.Time) (int64, error) {
	waitStart, writeStart := t, t
	for {
		ok, err := c.reqWriter.TryWrite(c.frameBuf)
		switch {
		case ok || errors.Is(err, ringbuf.ErrRemote):
			// ErrRemote is a failed completion drained after the frame was
			// posted: the frame may be in the ring, so it counts as sent, and
			// the wait for its reply finds the failed connection.
			op.SpanAt(obs.CliCreditWait, waitStart, writeStart)
			return op.SpanEnd(obs.CliRingWrite, writeStart), nil
		case err != nil:
			return t, fmt.Errorf("%w: %v", ErrClosed, err)
		case c.conn.Failed():
			return t, ErrClosed
		case !c.wait.Wait(deadline):
			return t, ErrTimeout
		}
		writeStart = op.Now()
	}
}

// recvLocked is one step of awaiting want's reply: it polls the response
// ring once and dispatches whatever frame arrived. The reply to want
// resolves it; any other frame is counted and skipped. On an empty ring it
// takes one step of c.wait; past deadline it reports ErrTimeout, whatever
// the ring held. An empty ring on a failed connection ends the wait with
// ErrClosed once a second poll finds it empty too: a reply that landed
// before the failure still decides the op. Of transport errors only fatal
// ones are returned.
//
// Over an untrusted network, frames that fail authentication — a
// corrupt ring slot, a response whose AEAD open fails, an
// unauthenticated status frame — cannot be attributed to any operation:
// anyone on the path could have forged them. Failing an operation on
// such a frame would let an attacker cancel requests with garbage, so an
// operation's fate is decided only by an authenticated response, its
// deadline, or the connection's own failure — which, like the deadline,
// leaves a sent write unconfirmed, and which an attacker able to reset the
// connection could turn into a timeout anyway. Called with mu held.
func (c *Client) recvLocked(want *pending, deadline time.Time) error {
	msg, ready, err := c.respReader.PollInto(c.pollBuf)
	if err == nil && !ready && c.conn.Failed() {
		if msg, ready, err = c.respReader.PollInto(c.pollBuf); err == nil && !ready {
			return ErrClosed
		}
	}
	c.pollBuf = msg[:cap(msg)]
	if ready {
		// A reply decides its op even when the credit write behind it failed.
		if ferr := c.dispatchLocked(msg, want); want.done {
			return ferr
		}
	}
	switch {
	case errors.Is(err, ringbuf.ErrCorrupt):
		// The reader consumed the mangled slot; the bytes are
		// unattributable noise.
		c.badFrames++
	case err != nil:
		// Anything else is a failed credit write — the connection is dead
		// or dying.
		return fmt.Errorf("%w: %v", ErrClosed, err)
	case ready:
	case !c.wait.Wait(deadline):
		return ErrTimeout
	default:
		return nil
	}
	// A frame that decided nothing is followed by another poll at once —
	// but never past the deadline, however many come.
	if time.Now().After(deadline) {
		return ErrTimeout
	}
	return nil
}

// dispatchLocked is recvLocked's handling of one arrived frame: the reply
// to want resolves it, and its frame-level error is returned. Every reply
// is a sealed BatchReply under the base AD: its sealed oid echo binds it to
// its frame.
func (c *Client) dispatchLocked(msg []byte, want *pending) error {
	var resp wire.Response
	if err := resp.Decode(msg); err != nil {
		c.badFrames++
		return nil
	}
	if len(resp.SealedControl) == 0 {
		// Unauthenticated status frame (auth failure / bad-request
		// notice). Advisory at best, forged at worst.
		c.unauthStatuses++
		return nil
	}
	// want's frame is already in the ring, so the control scratch is free
	// to take the reply's opened control.
	pt, err := c.aead.OpenAppend(c.ctlBuf[:0], resp.SealedControl, c.ad[:])
	if err != nil {
		c.badFrames++
		return nil
	}
	c.ctlBuf = pt
	switch {
	case wire.DecodeBatchReply(pt, &c.brep) != nil:
		c.badFrames++
		return nil
	case c.brep.Oid != want.oid:
		// Authenticated but stale: a duplicated or very late delivery
		// for an oid no longer awaited.
		c.staleFrames++
		return nil
	}
	return c.resolveLocked(want, resp.Payload, nil)
}

// ClientStats is a snapshot of a client's operation counters, in struct
// form so aggregators (pools, the cluster client) don't juggle positional
// returns.
type ClientStats struct {
	// Puts, Gets and Deletes count the ops that succeeded, in every frame
	// — a Batch's as much as a single op's — as ServerStats counts a
	// batch's ops beside single ones. A retried read counts once.
	Puts, Gets, Deletes uint64
	// Batches counts frames of more than one op sent; BatchedOps counts
	// the operations they carried (so BatchedOps/Batches is the realized
	// batch factor). A single op, or a Batch of one, is a frame of one.
	Batches, BatchedOps uint64
	// IntegrityFailures counts Get responses whose payload MAC did not
	// verify — the client-side tamper-evidence check (Algorithm 1).
	IntegrityFailures uint64
	// Retries counts the frames sent again: reads after transient
	// failures, repair ops after a shed.
	Retries uint64
	// RetryLaters counts the frames this connection had shed by the
	// admission gate (sealed RETRY_LATER replies).
	RetryLaters uint64
	// BadFrames counts unattributable response frames skipped by the
	// poll loop: corrupt ring slots, undecodable responses, and sealed
	// control data that failed authentication.
	BadFrames uint64
	// StaleFrames counts authenticated responses for an oid other than
	// the connection's one frame in flight (duplicated or very late
	// deliveries).
	StaleFrames uint64
	// UnauthStatuses counts unauthenticated server status frames, which
	// are never allowed to decide an operation's outcome.
	UnauthStatuses uint64
	// CreditStalls counts request-ring send attempts that found no
	// credit — each unit is one spin of the credit-wait loop, so the
	// counter measures flow-control backpressure.
	CreditStalls uint64
	// PollSpins, PollYields and PollSleeps count the steps of this
	// connection's waits: polled again at once, after a yield, after a sleep
	// (one or more per operation: the spin has switched itself off) or, over
	// the TCP fabric, a park that a write ended (PollParksWoken) or that ran
	// to ringbuf.ParkCap (PollParksCapped).
	PollSpins, PollYields, PollSleeps, PollParksWoken, PollParksCapped uint64
	// Fabric counts the TCP fabric's frames, socket reads and acks on the
	// connection's device (zero in process).
	Fabric rdma.FabricStats
	// Stages is the per-stage latency snapshot from this client's
	// tracer, nil when ClientConfig.Tracer is unset. Add ignores it (a
	// quantile snapshot cannot be summed): to aggregate stage latencies
	// across connections, share one Tracer among them instead.
	Stages []obs.StageQuantiles
}

// Add accumulates other into s, for cross-connection aggregation.
// Stages is not summable and is left untouched; see its doc.
func (s *ClientStats) Add(other ClientStats) {
	s.Puts += other.Puts
	s.Gets += other.Gets
	s.Deletes += other.Deletes
	s.Batches += other.Batches
	s.BatchedOps += other.BatchedOps
	s.IntegrityFailures += other.IntegrityFailures
	s.Retries += other.Retries
	s.RetryLaters += other.RetryLaters
	s.BadFrames += other.BadFrames
	s.StaleFrames += other.StaleFrames
	s.UnauthStatuses += other.UnauthStatuses
	s.CreditStalls += other.CreditStalls
	s.PollSpins += other.PollSpins
	s.PollYields += other.PollYields
	s.PollSleeps += other.PollSleeps
	s.PollParksWoken += other.PollParksWoken
	s.PollParksCapped += other.PollParksCapped
	s.Fabric.Add(other.Fabric)
}

// StatsStruct returns client-side operation counters, plus the tracer's
// per-stage latency quantiles when tracing is enabled.
func (c *Client) StatsStruct() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ClientStats{
		Puts: c.completed[BatchPut], Gets: c.completed[BatchGet], Deletes: c.completed[BatchDelete],
		Batches: c.batches, BatchedOps: c.batchedOps,
		IntegrityFailures: c.integrityFailures,
		Retries:           c.retries,
		RetryLaters:       c.retryLaters,
		BadFrames:         c.badFrames,
		StaleFrames:       c.staleFrames,
		UnauthStatuses:    c.unauthStatuses,
		CreditStalls:      c.reqWriter.Stalls(),
		Fabric:            c.device.FabricStats(),
		Stages:            c.cfg.Tracer.Snapshot(),
	}
	st.PollSpins, st.PollYields, st.PollSleeps = c.wait.Steps()
	st.PollParksWoken, st.PollParksCapped = c.wait.Parks()
	return st
}

// Tracer returns the client's tracer (nil when tracing is disabled).
func (c *Client) Tracer() *obs.Tracer { return c.cfg.Tracer }

// LastOid returns the most recently issued operation id. Oids are
// issued strictly monotonically per session — the replay-protection
// invariant the chaos suite checks after every run.
func (c *Client) LastOid() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.oid
}

// Close releases the connection and local memory registrations.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.conn.Close()
	c.device.Deregister(c.respRing)
	c.device.Deregister(c.reqCredit)
	return err
}
