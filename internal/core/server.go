package core

import (
	"encoding/binary"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"precursor/internal/audit"
	"precursor/internal/cryptox"
	"precursor/internal/hashtable"
	"precursor/internal/heat"
	"precursor/internal/obs"
	"precursor/internal/overload"
	"precursor/internal/rdma"
	"precursor/internal/ringbuf"
	"precursor/internal/sgx"
	"precursor/internal/slab"
	"precursor/internal/vlog"
	"precursor/internal/wire"
)

// replyCreditWait bounds how long a shared sender waits for one
// client's response-ring credit before dropping the reply.
const replyCreditWait = 20 * time.Millisecond

// replyFrameFree bounds the free list of reply frame buffers. A session
// has one reply in flight, so this covers dozens of busy sessions; past it a reply allocates its
// frame and the surplus is left to the GC, as every reply was before the
// list existed. Buffers are at most a ring slot, so the list is bounded
// memory independent of the number of keys.
const replyFrameFree = 64

// entry is the per-key security metadata of the enclave (Fig. 3, the
// (K_op, ptr, MAC) of §4), whole: what an operation reads and writes, and
// what the table keeps in parts (entries). The zero entry is no entry.
type entry struct {
	baseEntry
	payloadMAC             // hardened mode
	inline     *sgx.Region // the value itself, enclave-resident (inline mode, §5.2)
	version                // value log
}

// baseEntry is what every mode keeps per key: K_operation, the pointer into
// the untrusted payload pool and the owner — 48 bytes, no pointer.
type baseEntry struct {
	opKey cryptox.OperationKey
	ref   slab.Ref
	owner uint32
}

// payloadMAC is the payload MAC a hardened server keeps as enclave state.
type payloadMAC struct {
	hasMAC bool
	mac    [wire.MACSize]byte
}

// version names an entry's durable record: its place (ref is then a cache,
// evictable and rebuildable from vptr) and its sequence number.
type version struct {
	vptr vlog.Ptr
	seq  uint64
}

// entries is the enclave's table: a 52-byte record per key holding its
// baseEntry and, beside the records, a column per mode the server runs (nil
// when off); an entry holds no field its server keeps no column for. Get,
// Upsert and load see whole entries, a record and its columns under one lock
// hold; the embedded Table's Put and Swap write the record alone.
type entries struct {
	*hashtable.Table[baseEntry]
	macs   *hashtable.Column[payloadMAC]
	inline *hashtable.Column[*sgx.Region]
	vers   *hashtable.Column[version]
}

func (t *entries) load(b baseEntry, rec uint32) entry {
	e := entry{baseEntry: b}
	t.macs.Load(rec, &e.payloadMAC)
	t.inline.Load(rec, &e.inline)
	t.vers.Load(rec, &e.version)
	return e
}

func (t *entries) Get(key string) (e entry, ok bool) {
	ok = t.Read(key, func(b baseEntry, rec uint32) { e = t.load(b, rec) })
	return e, ok
}

// Upsert stores fn's entry for key if fn says to, handed the current one
// (zero if absent), and reports whether it stored.
func (t *entries) Upsert(key string, fn func(cur entry, exists bool) (entry, bool)) bool {
	return t.Edit(key, func(b *baseEntry, rec uint32, exists bool) bool {
		e, store := fn(t.load(*b, rec), exists)
		if store {
			*b = e.baseEntry
			t.macs.Store(rec, e.payloadMAC)
			t.inline.Store(rec, e.inline)
			t.vers.Store(rec, e.version)
		}
		return store
	})
}

// session is the per-client state: the transport-encryption AEAD keyed
// with K_session, the replay window, and the ring endpoints.
type session struct {
	id         uint32
	conn       rdma.Conn
	aead       *cryptox.AEAD
	ad         [4]byte // AEAD additional data of every control seal, both ways: the client id
	reqRing    *rdma.MemoryRegion
	reqReader  *ringbuf.Reader
	respWriter *ringbuf.Writer
	respCredit *rdma.MemoryRegion
	lastOid    uint64 // accessed only by the owning trusted thread
	revoked    atomic.Bool
	mayInline  bool         // the transport's post is a bounded in-memory copy (rdma.Conn.PostBounded)
	queued     atomic.Int32 // replies handed to the sender pool, not yet written or dropped

	// Scratch reused across frames so the server's steady-state op path
	// allocates nothing in the codecs or the control seals. Accessed only
	// by the owning trusted thread — the same single-poller invariant
	// that protects lastOid. ctlPt and repPt hold control plaintext: the
	// bytes that conceptually sit on the trusted thread's staging page
	// (charged once per poller in trustedLoop), so they add no EPC.
	ctlPt    []byte // opened request control, until the reply is sealed
	repPt    []byte // reply control plaintext, until sealed
	breq     wire.BatchRequest
	bctl     wire.BatchControl
	brep     wire.BatchReply
	bPayload []byte   // reply payload region (get segments, op order)
	valPt    []byte   // server encryption: a value's plaintext while re-sealed
	sealed   []byte   // server encryption: the re-sealed value, until placed or replied
	recBuf   []byte   // read-through: the log record served, until its payload joins bPayload
	got      []entry  // each get's copy of its entry, by op index, until the reply is sealed
	heat     []heatOp // each applied op's heat record, until the frame's reply is written
	payAD    payloadAD
	repair   *repairState // repair ops in progress (repair.go); nil between them
}

// heatOp is what heat accounting records of one applied op.
type heatOp struct {
	kind    heat.Kind
	hash    uint64
	in, out int
}

// outFrame is a reply handed from a trusted thread to the untrusted
// sender pool (§3.8: "trusted threads write request replies into an
// untrusted queue; the worker threads send these messages using RDMA"),
// when the thread could not post it itself (sendReply). frame comes from
// Server.frames and goes back once the ring write has returned. The
// tracing op rides along (nil when tracing is off): the sender loop owns
// the final srv_send span and finishes the trace.
type outFrame struct {
	sess  *session
	frame []byte
	op    *obs.Op
	enq   int64 // enqueue timestamp (obs.Now chain); start of the srv_send span
}

// Server is a Precursor key-value store instance.
type Server struct {
	cfg      ServerConfig
	device   *rdma.Device
	enclave  *sgx.Enclave
	acct     *enclaveAccountant
	table    *entries
	pool     *slab.Pool
	rollback sgx.TrustedCounter
	storage  *cryptox.AEAD // the server-encryption storage key; nil otherwise
	scratch  []*sgx.Region // each trusted thread's staging: a page, and stage bytes more
	stage    int

	mu        sync.Mutex
	sessions  map[uint32]*session
	byWorker  atomic.Value // [][]*session, rebuilt on membership change
	nextID    uint32
	ownerOnly atomic.Bool

	out                          chan outFrame
	pollers                      []ringbuf.Ladder // each trusted thread's idle back-off
	wakes                        []chan struct{}  // each trusted thread's park, armed into its TCP request rings
	repliesInline, repliesQueued atomic.Uint64
	// frames recycles reply frame buffers between trusted threads (take)
	// and senders (give back after the ring write copied the frame).
	frames chan []byte
	stopCh chan struct{}
	wg     sync.WaitGroup
	ready  atomic.Bool

	// dirty holds each in-flight repair session's dirty-key set (delta.go).
	dirty dirtySets

	// sealMu serializes Seal/Restore state swaps (a periodic sealer and a
	// repair op's snapshot must not interleave their counter bumps).
	sealMu      sync.Mutex
	lastSeal    atomic.Int64 // unix nanos of the last successful Seal, 0 = never
	seals       atomic.Uint64
	lastSealDur atomic.Int64 // nanos the last Seal spent serializing

	// Durable value log (nil unless ServerConfig.DataDir is set).
	vlog     *vlog.Log
	vlogAEAD *cryptox.AEAD // seals per-record metadata; enclave-derived
	// vlogMetaBuf is the enclave's scratch for a record's metadata plaintext
	// and associated data; nothing aliases it once vlogMetaMu is released.
	vlogMetaMu    sync.Mutex
	vlogMetaBuf   []byte
	vlogTrack     seqTracker
	vlogWatermark uint64 // applied-seq watermark from Restore; guarded by sealMu

	vlogReads, vlogReadErrors atomic.Uint64
	vlogAuthFails             atomic.Uint64
	vlogGCRuns, vlogGCMoved   atomic.Uint64

	puts, gets, deletes   atomic.Uint64
	batches, batchedOps   atomic.Uint64
	replays, authFailures atomic.Uint64
	badRequests           atomic.Uint64
	traceCtxErrors        atomic.Uint64
	cryptoBytes           atomic.Uint64

	// gate is the admission controller consulted at ring pickup. Always
	// non-nil: when ServerConfig.Overload is unset a drain-only gate is
	// installed (never sheds on load, still sheds during drain), so
	// graceful shutdown works on every server.
	gate *overload.Gate
}

// NewServer creates and starts a Precursor server on the given RDMA
// device. The enclave is created, measured, and its trusted polling
// threads are launched (one "start polling" ecall each, §4).
func NewServer(device *rdma.Device, cfg ServerConfig) (*Server, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("precursor: ServerConfig.Platform is required")
	}
	if cfg.ServerEncryption && (cfg.HardenedMACs || cfg.DataDir != "") {
		return nil, fmt.Errorf("precursor: ServerEncryption combines with neither HardenedMACs nor DataDir")
	}
	c := cfg.withDefaults()
	if c.RandomRKeys {
		device.RandomizeRKeys()
	}
	enclave := c.Platform.CreateEnclave(c.Image, c.ImagePages)

	s := &Server{
		cfg:      c,
		device:   device,
		enclave:  enclave,
		rollback: c.RollbackCounter,
		sessions: make(map[uint32]*session),
		out:      make(chan outFrame, 1024),
		frames:   make(chan []byte, replyFrameFree),
		stopCh:   make(chan struct{}),
		scratch:  make([]*sgx.Region, c.Workers),
	}
	if s.rollback == nil {
		s.rollback = sgx.AsTrustedCounter(sgx.NewMonotonicCounter())
	}
	s.gate = c.Overload
	if s.gate == nil {
		// Drain-only gate: thresholds high enough to never shed on load,
		// so only SetDraining engages it.
		s.gate = overload.NewGate(overload.GateConfig{
			MaxInflight:   -1,
			MaxQueueDelay: time.Hour,
		})
	}
	s.acct = newEnclaveAccountant(enclave)
	if c.Audit != nil {
		// Keyed inside the enclave, so only this identity (or a replica sharing
		// its platform and measurement) can MAC the chain. SetKey is set-once:
		// a log shared across a replica group keeps one key.
		mk, err := s.sealedKey("derive_audit_key", "precursor-audit-mac-v1", 32)
		if err != nil {
			return nil, fmt.Errorf("audit key: %w", err)
		}
		c.Audit.SetKey(mk)
	}
	if c.ServerEncryption {
		// Derived as the value log's key is, so sealed snapshots restore.
		k, err := s.sealedKey("derive_storage_key", "precursor-serverenc-storage-v1", cryptox.SessionKeySize)
		if err == nil {
			s.storage, err = cryptox.NewAEAD(k)
		}
		if err != nil {
			return nil, fmt.Errorf("storage key: %w", err)
		}
		s.stage = DefaultSlotSize
	}
	// The pool's framing is what every stored form carries beyond its value
	// (placeStored), so a value of a class's grid size fills its slot.
	framing := cryptox.PayloadSealOverhead // nonce ‖ ciphertext ‖ MAC
	if c.HardenedMACs {
		framing = cryptox.Salsa20NonceSize // the MAC is enclave state
	} else if c.ServerEncryption {
		framing = cryptox.SealOverhead // the enclave's re-sealed blob
	}
	s.pool = slab.New(slab.WithFraming(framing), slab.WithGrowFunc(func(n int) error {
		// The single ocall of §4/§3.8: enlarge the pre-allocated untrusted
		// list. The allocation itself happens in untrusted memory.
		return enclave.Ocall("grow_pool", func() error { return nil })
	}))

	// Ecall i.: initialize the hash table inside the enclave.
	if err := enclave.Ecall("init_hashtable", func() error {
		t := hashtable.New[baseEntry](s.acct, DefaultEntryBytes)
		s.table = &entries{t, hashtable.NewColumn[payloadMAC](t, c.HardenedMACs),
			hashtable.NewColumn[*sgx.Region](t, c.InlineSmallValues), hashtable.NewColumn[version](t, c.DataDir != "")}
		return nil
	}); err != nil {
		return nil, err
	}

	// Durable value log: values spill to untrusted disk, the enclave
	// keeps the index (see vlog.go).
	if c.DataDir != "" {
		if err := s.initVlog(); err != nil {
			return nil, err
		}
	}

	// Ecall ii.: start the trusted polling threads.
	s.byWorker.Store(make([][]*session, c.Workers))
	s.pollers = make([]ringbuf.Ladder, c.Workers)
	s.wakes = make([]chan struct{}, c.Workers)
	for w := 0; w < c.Workers; w++ {
		w := w
		s.wakes[w] = make(chan struct{}, 1)
		if err := enclave.Ecall("start_polling", func() error { return nil }); err != nil {
			return nil, err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.trustedLoop(w)
		}()
	}
	// Untrusted sender pool.
	for w := 0; w < c.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.senderLoop()
		}()
	}
	s.ready.Store(true)
	return s, nil
}

// sealedKey derives an n-byte key for label from the sealing key, inside
// the enclave: the same on every start of this platform and image.
func (s *Server) sealedKey(ecall, label string, n int) (key []byte, err error) {
	err = s.enclave.Ecall(ecall, func() error {
		sk, err := s.enclave.SealingKey()
		if err == nil {
			key, err = cryptox.HKDF(sk, nil, []byte(label), n)
		}
		return err
	})
	return key, err
}

// Ready reports whether the server has completed bootstrap and can take
// traffic: true once NewServer returns, false while a Restore is
// replacing state and after Close. /healthz readiness keys off this.
func (s *Server) Ready() bool { return s.ready.Load() }

// Measurement returns the enclave identity clients must expect.
func (s *Server) Measurement() sgx.Measurement { return s.enclave.Measurement() }

// Enclave exposes the server's enclave for tooling (Table 1's working set).
func (s *Server) Enclave() *sgx.Enclave { return s.enclave }

// Tracer returns the server's tracer (nil when tracing is disabled).
func (s *Server) Tracer() *obs.Tracer { return s.cfg.Tracer }

// AuditLog returns the server's security audit log (nil when auditing
// is disabled). /debug/audit and /healthz serve from it.
func (s *Server) AuditLog() *audit.Log { return s.cfg.Audit }

// Heat returns the server's heat collector (nil when heat accounting
// is disabled).
func (s *Server) Heat() *heat.Collector { return s.cfg.Heat }

// SetOwnerOnly enables the simple access-control policy where only the
// client that wrote a key may read or delete it ("traditional access
// control schemes inside the server-side TEE", §3.3).
func (s *Server) SetOwnerOnly(on bool) { s.ownerOnly.Store(on) }

// HandleConnection runs the per-client bootstrap on a freshly connected
// queue pair: remote attestation with session-key establishment (ecall
// iii., "add a new client"), ring allocation, and the memory-window
// exchange of §3.6. It blocks until the handshake completes.
func (s *Server) HandleConnection(conn rdma.Conn) (uint32, error) {
	if err := conn.PostRecv(1, make([]byte, bootstrapBufSize)); err != nil {
		return 0, fmt.Errorf("post bootstrap recv: %w", err)
	}
	var hello helloMsg
	if err := recvMsg(conn, &hello, time.Now().Add(bootstrapTimeout)); err != nil {
		return 0, err
	}
	if hello.RespSlots <= 0 || hello.RespSlotSize <= ringbuf.Overhead {
		_ = sendMsg(conn, 1, &welcomeMsg{Error: "bad response ring geometry"})
		return 0, ErrBadBootstrap
	}
	if s.cfg.MaxClients > 0 {
		s.mu.Lock()
		full := len(s.sessions) >= s.cfg.MaxClients
		s.mu.Unlock()
		if full {
			// Admission control against connection floods (§3.9).
			_ = sendMsg(conn, 1, &welcomeMsg{Error: "server at client capacity"})
			conn.SetError()
			return 0, ErrServerFull
		}
	}

	welcome, aead, err := s.respondAttest(conn, &hello)
	if err != nil {
		return 0, err
	}

	// Allocate the client's request ring in untrusted server memory and
	// the credit counter its response-ring reader reports into.
	reqRing := s.device.RegisterMemory(
		ringbuf.RingBytes(DefaultRingSlots, DefaultSlotSize), rdma.PermRemoteWrite)
	respCredit := s.device.RegisterMemory(ringbuf.CreditBytes, rdma.PermRemoteWrite)

	sess := &session{conn: conn, aead: aead, reqRing: reqRing, respCredit: respCredit,
		mayInline: conn.PostBounded()}

	sess.reqReader, err = ringbuf.NewReader(ringbuf.ReaderConfig{
		Ring: reqRing, Slots: DefaultRingSlots, SlotSize: DefaultSlotSize,
		Conn: conn, CreditRKey: hello.ReqCreditRKey,
	})
	if err != nil {
		return 0, err
	}
	sess.respWriter, err = ringbuf.NewWriter(ringbuf.WriterConfig{
		Conn: conn, RingRKey: hello.RespRingRKey,
		Slots: hello.RespSlots, SlotSize: hello.RespSlotSize,
		Credit: respCredit,
	})
	if err != nil {
		return 0, err
	}

	s.mu.Lock()
	s.nextID++
	id := s.nextID
	sess.id = id
	binary.LittleEndian.PutUint32(sess.ad[:], id)
	if !sess.mayInline {
		reqRing.Arm(s.wakes[int(id)%s.cfg.Workers])
	}
	s.sessions[id] = sess
	s.rebuildWorkersLocked()
	s.mu.Unlock()

	// The enclave keeps ~200 B of session state (K_session, oid, id).
	s.acct.chargeSession()
	s.logEvent("client attested and connected", slog.Int("client", int(id)),
		slog.Int("reqRingSlots", DefaultRingSlots))

	welcome.ClientID, welcome.ReqRingRKey, welcome.RespCreditRKey = id, reqRing.RKey(), respCredit.RKey()
	welcome.ReqSlots, welcome.ReqSlotSize = DefaultRingSlots, DefaultSlotSize
	welcome.ServerEncryption = s.cfg.ServerEncryption
	if s.cfg.InlineSmallValues {
		welcome.InlineMax = DefaultInlineMax
	}
	if err := sendMsg(conn, 2, welcome); err != nil {
		return 0, err
	}
	return id, nil
}

// RevokeClient tears down a client's access by transitioning its queue
// pair to the error state (§3.9) and dropping its session.
func (s *Server) RevokeClient(id uint32) bool { return s.endSession(id, true) }

// endSession drops session id and all it holds: its rings, its place in a
// sweep and under MaxClients, any repair in progress. revoke moves its
// queue pair to the error state; else the pair has failed (the sweep saw
// it) and the server's end is closed.
func (s *Server) endSession(id uint32, revoke bool) bool {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
		s.rebuildWorkersLocked()
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	sess.revoked.Store(true)
	s.dirty.drop(id)
	if revoke {
		sess.conn.SetError()
	} else {
		_ = sess.conn.Close()
	}
	s.device.Deregister(sess.reqRing)
	s.device.Deregister(sess.respCredit)
	s.logEvent("client session ended", slog.Int("client", int(id)), slog.Bool("revoked", revoke))
	return true
}

// logEvent emits a structured event when a logger is configured.
func (s *Server) logEvent(msg string, attrs ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info(msg, attrs...)
	}
}

// rebuildWorkersLocked repartitions sessions across trusted threads.
func (s *Server) rebuildWorkersLocked() {
	parts := make([][]*session, s.cfg.Workers)
	for id, sess := range s.sessions {
		w := int(id) % s.cfg.Workers
		parts[w] = append(parts[w], sess)
	}
	s.byWorker.Store(parts)
}

// trustedLoop is one trusted thread: it polls its subset of client rings
// (§3.8) and handles complete requests. Conceptually it runs inside the
// long-lived "start polling" ecall issued at startup, so the hot path has
// no enclave transitions.
func (s *Server) trustedLoop(worker int) {
	var pollBuf []byte
	tr := s.cfg.Tracer
	// Idle back-off, reset by a single ready frame: spin, then yield the P —
	// both with in-memory transports only — then sleep PollInterval a sweep
	// (a negative one keeps yielding: a pure busy-poll), or, when every
	// session's ring is armed, park until a write lands.
	idle := &s.pollers[worker]
	for {
		select {
		case <-s.stopCh:
			return
		default:
		}
		parts, _ := s.byWorker.Load().([][]*session)
		var mine []*session
		if worker < len(parts) {
			mine = parts[worker]
		}
		// iterStart anchors srv_pickup: the time from the sweep's first
		// ready frame being found to each frame's handling starting. It
		// is stamped lazily so idle sweeps — the overwhelming majority
		// under low load — never touch the clock.
		var iterStart int64
		progress, armed := false, len(mine) > 0
		idle.Spin, idle.Yield = ringbuf.PollerSpin, ringbuf.PollerYield
		for _, sess := range mine {
			if sess.mayInline {
				armed = false
			} else {
				idle.Spin, idle.Yield = 0, 0
			}
			if sess.revoked.Load() {
				continue
			}
			msg, ready, err := sess.reqReader.PollInto(pollBuf)
			pollBuf = msg[:cap(msg)]
			if err != nil {
				// Corrupt frame from a rogue client: skip; flow-control
				// violations produce garbage the framing rejects (§3.9).
				s.badRequests.Add(1)
				continue
			}
			if !ready {
				// The ring is drained: a failed queue pair ends the session.
				if sess.conn.Failed() {
					s.endSession(sess.id, false)
				}
				continue
			}
			if s.scratch[worker] == nil {
				// Lazily reserve this trusted thread's in-enclave staging
				// page for control data and replies, first request only —
				// the small one-time EPC jump Table 1 shows at one key.
				s.scratch[worker], _ = s.enclave.Reserve(sgx.PageSize + s.stage)
			}
			s.scratch[worker].Touch(0, len(msg)%sgx.PageSize+1)
			progress = true
			var op *obs.Op
			var now int64
			if tr != nil {
				if iterStart == 0 {
					iterStart = obs.Now()
				}
				op = tr.StartAt(worker, "op", iterStart)
				op.SetClient(sess.id)
				now = op.SpanEnd(obs.SrvPickup, iterStart)
			}
			s.handleBatch(sess, msg, op, now)
		}
		idle.Wake, idle.Sleep = nil, s.cfg.PollInterval
		if armed {
			idle.Wake, idle.Sleep = s.wakes[worker], ringbuf.ParkCap
		}
		if progress {
			idle.Done()
		} else {
			idle.Wait(time.Time{})
		}
	}
}

// senderLoop is one untrusted worker: it posts the replies trusted threads
// queued (sendReply) into client response rings with one-sided writes.
func (s *Server) senderLoop() {
	for {
		select {
		case <-s.stopCh:
			return
		case of := <-s.out:
			// Errors here mean the client vanished or was revoked; the
			// reply is dropped, which the client observes as a timeout.
			// The wait for ring credit is bounded: one client whose
			// response ring never drains must not pin a shared sender
			// and starve every other session's replies.
			err := ErrRevoked
			if !of.sess.revoked.Load() {
				err = of.sess.respWriter.WriteDeadline(of.frame, time.Now().Add(replyCreditWait))
				of.op.Span(obs.SrvSend, of.enq)
			}
			of.sess.queued.Add(-1)
			of.op.SetError(err)
			of.op.Finish()
			// Sent or given up on: either way the ring writer has returned
			// and holds no reference to the frame any more.
			s.recycleFrame(of.frame)
		}
	}
}

// takeFrame returns an empty reply frame buffer from the free list, or
// nil (the encoder then allocates one of the right size) when the list
// is empty.
func (s *Server) takeFrame() []byte {
	select {
	case b := <-s.frames:
		return b
	default:
		return nil
	}
}

// recycleFrame gives a reply frame buffer back once nothing references
// its bytes; a full list drops it.
func (s *Server) recycleFrame(b []byte) {
	select {
	case s.frames <- b[:0]:
	default:
	}
}

// reply sends an unauthenticated status frame — a header and nothing
// sealed — for a frame the enclave could not attribute: one that failed to
// decode or to authenticate. Every other reply is a sealed BatchReply
// (replyBatch). Ownership of op is as in sendReply.
func (s *Server) reply(sess *session, status wire.Status, op *obs.Op, now int64) {
	s.sendReply(sess, status, nil, nil, op, now)
}

// sendReply builds the response frame — header ‖ control plaintext pt
// sealed under the session's AD (nothing when pt is nil) ‖ payload — in a
// recycled buffer and sends it. Only the seal happens in the enclave; the
// frame itself is untrusted memory. It takes ownership of op: whoever
// writes the frame into the ring, this thread or the sender loop, finishes
// the trace after the write; on encode/seal failures and shutdown the trace
// is finished here. now is the caller's last stage-boundary timestamp (0
// when op is nil), continuing the chained clock reads.
//
// The trusted thread runs the reply to completion — one TryWrite, which
// never waits — unless a post on this transport could stall on the peer,
// replies of the session are still queued (order), or the ring is out of
// credit (the bounded wait is the sender pool's): then the frame goes down
// §3.8's untrusted queue.
func (s *Server) sendReply(sess *session, status wire.Status, pt, payload []byte, op *obs.Op, now int64) {
	sealedLen := 0
	if pt != nil {
		sealedLen = len(pt) + cryptox.SealOverhead
	}
	frame, err := wire.AppendResponseHeader(s.takeFrame(), status, sealedLen, len(payload))
	if err == nil && pt != nil {
		frame, err = sess.aead.SealAppend(frame, pt, sess.ad[:])
	}
	if err != nil {
		// Only an oversized reply gets here; its buffer is left to the GC.
		op.SetError(err)
		op.Finish()
		return
	}
	if pt != nil {
		s.cryptoBytes.Add(uint64(sealedLen))
		now = op.SpanEnd(obs.SrvReplySeal, now)
	}
	frame = append(frame, payload...)
	if sess.mayInline && sess.queued.Load() == 0 {
		// An error means the client vanished or was revoked: dropped.
		if sent, err := sess.respWriter.TryWrite(frame); sent || err != nil {
			s.repliesInline.Add(1)
			op.Span(obs.SrvSend, now)
			op.SetError(err)
			op.Finish()
			s.recycleFrame(frame)
			return
		}
	}
	sess.queued.Add(1)
	s.repliesQueued.Add(1)
	select {
	case s.out <- outFrame{sess: sess, frame: frame, op: op, enq: now}:
	case <-s.stopCh:
		sess.queued.Add(-1)
		s.recycleFrame(frame)
		op.Finish()
	}
}

// openControl opens a frame's sealed control segment into sess.ctlPt.
// Only that segment crosses into the enclave; the frame's payload stays
// in untrusted memory (Fig. 3, steps 3–4). A segment that fails
// authentication is counted, logged, audited and answered with an
// unauthenticated status frame.
func (s *Server) openControl(sess *session, sealed []byte, op *obs.Op, now int64) bool {
	s.cryptoBytes.Add(uint64(len(sealed)))
	pt, err := sess.aead.OpenAppend(sess.ctlPt[:0], sealed, sess.ad[:])
	if err != nil {
		s.authFailure(sess, "control data")
		op.SetError(ErrAuth)
		s.reply(sess, wire.StatusAuthFailed, op, now)
		return false
	}
	sess.ctlPt = pt
	return true
}

// recrypt is server encryption's two passes: open in under from, stage the
// plaintext on the enclave scratch, seal it under to into session scratch.
func (s *Server) recrypt(sess *session, from *cryptox.AEAD, fromAD, in []byte, to *cryptox.AEAD, toAD []byte) ([]byte, error) {
	s.cryptoBytes.Add(uint64(len(in)))
	pt, err := from.OpenAppend(sess.valPt[:0], in, fromAD)
	if err != nil {
		return nil, err
	}
	sess.valPt = pt
	s.scratch[int(sess.id)%s.cfg.Workers].Touch(sgx.PageSize, len(pt))
	sess.sealed, err = to.SealAppend(sess.sealed[:0], pt, toAD)
	s.cryptoBytes.Add(uint64(len(sess.sealed)))
	return sess.sealed, err
}

// payloadAD binds a server-encrypted payload to its op, both ways.
type payloadAD [4 + 8 + 4]byte

// of fills the AD — client id ‖ oid ‖ op index (PROTOCOL.md §3) — and returns it.
func (a *payloadAD) of(id uint32, oid uint64, idx int) []byte {
	binary.LittleEndian.PutUint32(a[:], id)
	binary.LittleEndian.PutUint64(a[4:], oid)
	binary.LittleEndian.PutUint32(a[12:], uint32(idx))
	return a[:]
}

// authFailure counts, logs and audits what of sess failing authentication
// in the enclave.
func (s *Server) authFailure(sess *session, what string) {
	s.authFailures.Add(1)
	s.logEvent(what+" failed authentication", slog.Int("client", int(sess.id)))
	s.cfg.Audit.Add(audit.Record{Kind: audit.KindAuthFail, Client: sess.id, Detail: what + " failed authentication"})
}

// replayed is the replay check (Algorithm 2, lines 4–6): a session's oids
// must strictly increase. A frame carries one oid, so its ops are
// replay-checked as a unit. A stale oid is counted, logged and audited; the
// caller answers it with a sealed FlagReplay reply.
func (s *Server) replayed(sess *session, oid uint64, op *obs.Op) bool {
	if oid > sess.lastOid {
		return false
	}
	s.replays.Add(1)
	s.logEvent("replay detected", slog.Int("client", int(sess.id)),
		slog.Uint64("oid", oid), slog.Uint64("lastOid", sess.lastOid))
	s.cfg.Audit.Add(audit.Record{Kind: audit.KindReplay, Client: sess.id, Oid: oid,
		Detail: fmt.Sprintf("oid %d not above last %d", oid, sess.lastOid)})
	op.SetError(ErrReplay)
	return true
}

// shed notes an admission-control refusal of what (a read or a write
// frame) on the tracer and the op; the caller sends the sealed
// RETRY_LATER.
func (s *Server) shed(what string, op *obs.Op) {
	if tr := s.cfg.Tracer; tr != nil {
		tr.NoteFault("shed " + what + " (overload)")
	}
	op.SetError(ErrRetryLater)
}

// adoptTrace stitches the server-side op into the request's propagated
// trace: server spans adopt the client's trace id. A context that was
// present but failed to decode — a version-skewed peer — is surfaced as a
// fault annotation and the precursor_trace_context_errors_total counter
// rather than silently dropping correlation. Replies seal under the base
// AD whatever the context: the sealed oid echo binds a reply to its frame.
func (s *Server) adoptTrace(ctx wire.TraceContext, bad bool, op *obs.Op) {
	switch {
	case ctx.Valid():
		op.AdoptRef(obs.SpanRef{TraceID: ctx.TraceID, SpanID: ctx.ParentSpan, Sampled: ctx.Sampled})
	case bad:
		s.traceCtxErrors.Add(1)
		if tr := s.cfg.Tracer; tr != nil {
			tr.NoteFault("trace context decode failure")
		}
	}
}

// heatKind maps opcodes to heat collector kinds.
func heatKind(o wire.Opcode) heat.Kind {
	switch o {
	case wire.OpPut:
		return heat.KindPut
	case wire.OpDelete:
		return heat.KindDelete
	default:
		return heat.KindGet
	}
}

// opKind maps opcodes to the lowercase trace kinds the client side also
// uses, so one operation reads uniformly across both tracers.
func opKind(o wire.Opcode) string {
	switch o {
	case wire.OpPut:
		return "put"
	case wire.OpGet:
		return "get"
	case wire.OpDelete:
		return "delete"
	case wire.OpSnapshot, wire.OpRestore, wire.OpDelta:
		return "repair"
	}
	return "op"
}

// frameKind is the trace kind of a frame of n ops whose first is first: a
// frame of one is traced as its op, on both sides.
func frameKind(n int, first wire.Opcode) string {
	if n == 1 {
		return opKind(first)
	}
	return "batch"
}

// Stats returns a snapshot of server activity.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	clients := len(s.sessions)
	s.mu.Unlock()
	ps := s.pool.Stats()
	gs := s.gate.Stats()
	var spins, yields, sleeps, woken, capped uint64
	for i := range s.pollers {
		a, b, c := s.pollers[i].Steps()
		d, e := s.pollers[i].Parks()
		spins, yields, sleeps, woken, capped = spins+a, yields+b, sleeps+c, woken+d, capped+e
	}
	return ServerStats{
		RepliesInline: s.repliesInline.Load(), RepliesQueued: s.repliesQueued.Load(),
		PollSpins: spins, PollYields: yields, PollSleeps: sleeps,
		PollParksWoken: woken, PollParksCapped: capped, Fabric: s.device.FabricStats(),
		Vlog:               s.vlogStats(),
		SealDuration:       time.Duration(s.lastSealDur.Load()),
		Puts:               s.puts.Load(),
		Gets:               s.gets.Load(),
		Deletes:            s.deletes.Load(),
		Batches:            s.batches.Load(),
		BatchedOps:         s.batchedOps.Load(),
		Replays:            s.replays.Load(),
		AuthFailures:       s.authFailures.Load(),
		BadRequests:        s.badRequests.Load(),
		TraceCtxErrors:     s.traceCtxErrors.Load(),
		EnclaveCryptoBytes: s.cryptoBytes.Load(),
		Entries:            s.table.Len(),
		Clients:            clients,
		Enclave:            s.enclave.Stats(),
		PoolBytesReserved:  ps.BytesReserved,
		PoolBytesInUse:     ps.BytesInUse,
		PoolBytesRequested: ps.BytesRequested,
		PoolGrowths:        ps.Growths,
		ShedReads:          gs.ShedReads,
		ShedWrites:         gs.ShedWrites,
		Draining:           gs.Draining,
	}
}

// Gate returns the server's admission gate (never nil; a drain-only
// gate when ServerConfig.Overload was unset), for metrics exporters.
func (s *Server) Gate() *overload.Gate { return s.gate }

// SetDraining toggles graceful drain: while draining every new
// operation is shed with a sealed RETRY_LATER so clients fail over,
// while in-flight work completes normally. Used by SIGTERM shutdown —
// drain, wait a grace period, seal, exit.
func (s *Server) SetDraining(v bool) { s.gate.SetDraining(v) }

// Draining reports whether the server is in graceful drain.
func (s *Server) Draining() bool { return s.gate.Draining() }

// RetryHint decodes the backoff hint carried in a sealed RETRY_LATER
// reply's inline-value field: a little-endian uint32 millisecond
// count. Returns 0 when the hint is absent or malformed ("use your
// own backoff").
func RetryHint(b []byte) time.Duration {
	if len(b) < 4 {
		return 0
	}
	return time.Duration(binary.LittleEndian.Uint32(b)) * time.Millisecond
}

// hintBytes encodes a shed backoff hint for the sealed reply,
// saturating at uint32 milliseconds and flooring at 1ms so a hint is
// never encoded as "none".
func hintBytes(d time.Duration) []byte {
	ms := d.Milliseconds()
	if ms <= 0 {
		ms = 1
	}
	if ms > int64(^uint32(0)) {
		ms = int64(^uint32(0))
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(ms))
	return b[:]
}

// Close stops all worker threads and destroys the enclave.
func (s *Server) Close() {
	s.mu.Lock()
	select {
	case <-s.stopCh:
		s.mu.Unlock()
		return
	default:
	}
	s.ready.Store(false)
	close(s.stopCh)
	s.mu.Unlock()
	s.wg.Wait()
	if s.vlog != nil {
		_ = s.vlog.Close()
	}
	s.enclave.Destroy()
}
