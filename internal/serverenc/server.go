package serverenc

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"precursor/internal/cryptox"
	"precursor/internal/hashtable"
	"precursor/internal/rdma"
	"precursor/internal/ringbuf"
	"precursor/internal/sgx"
	"precursor/internal/slab"
	"precursor/internal/wire"
)

// ServerConfig configures the server-encryption baseline.
type ServerConfig struct {
	Platform     *sgx.Platform
	Image        []byte
	Workers      int
	RingSlots    int
	SlotSize     int
	PollInterval time.Duration
}

func (c *ServerConfig) withDefaults() ServerConfig {
	out := *c
	if out.Workers <= 0 {
		out.Workers = 12
	}
	if out.RingSlots <= 0 {
		out.RingSlots = 32
	}
	if out.SlotSize <= 0 {
		out.SlotSize = 20 * 1024
	}
	if len(out.Image) == 0 {
		out.Image = []byte("precursor-serverenc-enclave-v1")
	}
	if out.PollInterval == 0 {
		out.PollInterval = 20 * time.Microsecond
	}
	return out
}

// entry is the enclave metadata per key: just the pointer — the stored
// blob is self-authenticating under the storage key.
type entry struct {
	ref   slab.Ref
	owner uint32
}

type session struct {
	id         uint32
	conn       rdma.Conn
	aead       *cryptox.AEAD
	ad         [4]byte
	reqRing    *rdma.MemoryRegion
	reqReader  *ringbuf.Reader
	respWriter *ringbuf.Writer
	respCredit *rdma.MemoryRegion
	lastOid    uint64
	revoked    atomic.Bool
}

type outFrame struct {
	sess  *session
	frame []byte
}

// ServerStats is a snapshot of baseline server activity, including the
// enclave crypto byte counts that make the server-side CPU cost visible.
type ServerStats struct {
	Puts, Gets, Deletes uint64
	Replays             uint64
	AuthFailures        uint64
	// EnclaveCryptoBytes counts every payload byte the enclave decrypted
	// or encrypted — the quantity Precursor's design eliminates.
	EnclaveCryptoBytes uint64
	// EnclaveCopyBytes counts payload bytes copied across the enclave
	// boundary.
	EnclaveCopyBytes uint64
	Entries          int
	Enclave          sgx.Stats
}

// Server is the server-encryption baseline store.
type Server struct {
	cfg     ServerConfig
	device  *rdma.Device
	enclave *sgx.Enclave
	storage *cryptox.AEAD // storage key: lives only inside the enclave
	table   *hashtable.Table[*entry]
	pool    *slab.Pool

	mu       sync.Mutex
	sessions map[uint32]*session
	byWorker atomic.Value
	nextID   uint32

	out    chan outFrame
	stopCh chan struct{}
	wg     sync.WaitGroup

	puts, gets, deletes   atomic.Uint64
	replays, authFailures atomic.Uint64
	cryptoBytes           atomic.Uint64
	copyBytes             atomic.Uint64
}

// NewServer creates and starts the baseline server.
func NewServer(device *rdma.Device, cfg ServerConfig) (*Server, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("serverenc: ServerConfig.Platform is required")
	}
	c := cfg.withDefaults()
	enclave := c.Platform.CreateEnclave(c.Image, 45)

	storageKey, err := cryptox.RandomBytes(cryptox.SessionKeySize)
	if err != nil {
		return nil, err
	}
	storage, err := cryptox.NewAEAD(storageKey)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      c,
		device:   device,
		enclave:  enclave,
		storage:  storage,
		sessions: make(map[uint32]*session),
		out:      make(chan outFrame, 1024),
		stopCh:   make(chan struct{}),
	}
	s.pool = slab.New(slab.WithGrowFunc(func(n int) error {
		return enclave.Ocall("grow_pool", func() error { return nil })
	}))
	if err := enclave.Ecall("init_hashtable", func() error {
		s.table = hashtable.New[*entry](nil, 64)
		return nil
	}); err != nil {
		return nil, err
	}
	s.byWorker.Store(make([][]*session, c.Workers))
	for w := 0; w < c.Workers; w++ {
		w := w
		if err := enclave.Ecall("start_polling", func() error { return nil }); err != nil {
			return nil, err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.trustedLoop(w)
		}()
	}
	for w := 0; w < c.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.senderLoop()
		}()
	}
	return s, nil
}

// Measurement returns the enclave identity.
func (s *Server) Measurement() sgx.Measurement { return s.enclave.Measurement() }

// HandleConnection runs the bootstrap for a new client (same handshake as
// Precursor; the baselines differ only in the data path).
func (s *Server) HandleConnection(conn rdma.Conn) (uint32, error) {
	if err := conn.PostRecv(1, make([]byte, 4096)); err != nil {
		return 0, err
	}
	var hello bootstrapHello
	if err := recvJSON(conn, &hello); err != nil {
		return 0, err
	}
	var (
		sh         sgx.ServerHello
		sessionKey []byte
	)
	err := s.enclave.Ecall("add_client", func() error {
		var err error
		sh, sessionKey, err = s.enclave.RespondHandshake(sgx.ClientHello{
			PublicKey: hello.AttestPub, Nonce: hello.AttestNonce,
		})
		return err
	})
	if err != nil {
		return 0, err
	}
	aead, err := cryptox.NewAEAD(sessionKey)
	if err != nil {
		return 0, err
	}
	reqRing := s.device.RegisterMemory(
		ringbuf.RingBytes(s.cfg.RingSlots, s.cfg.SlotSize), rdma.PermRemoteWrite)
	respCredit := s.device.RegisterMemory(ringbuf.CreditBytes, rdma.PermRemoteWrite)

	sess := &session{conn: conn, aead: aead, reqRing: reqRing, respCredit: respCredit}
	sess.reqReader, err = ringbuf.NewReader(ringbuf.ReaderConfig{
		Ring: reqRing, Slots: s.cfg.RingSlots, SlotSize: s.cfg.SlotSize,
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
	s.sessions[id] = sess
	s.rebuildLocked()
	s.mu.Unlock()

	return id, sendJSON(conn, 2, &bootstrapWelcome{
		AttestPub:        sh.PublicKey,
		QuoteMeasurement: sh.Quote.Measurement[:],
		QuoteReportData:  sh.Quote.ReportData,
		QuoteSignature:   sh.Quote.Signature,
		ClientID:         id,
		ReqRingRKey:      reqRing.RKey(),
		ReqSlots:         s.cfg.RingSlots,
		ReqSlotSize:      s.cfg.SlotSize,
		RespCreditRKey:   respCredit.RKey(),
	})
}

func (s *Server) rebuildLocked() {
	parts := make([][]*session, s.cfg.Workers)
	for id, sess := range s.sessions {
		w := int(id) % s.cfg.Workers
		parts[w] = append(parts[w], sess)
	}
	s.byWorker.Store(parts)
}

func (s *Server) trustedLoop(worker int) {
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
		progress := false
		for _, sess := range mine {
			if sess.revoked.Load() {
				continue
			}
			msg, ready, err := sess.reqReader.Poll()
			if err != nil || !ready {
				continue
			}
			progress = true
			s.handle(sess, msg)
		}
		if !progress && s.cfg.PollInterval > 0 {
			time.Sleep(s.cfg.PollInterval)
		}
	}
}

// replyCreditWait bounds a sender's wait for one client's response-ring
// credit, as in internal/core: past it the reply is dropped.
const replyCreditWait = 20 * time.Millisecond

func (s *Server) senderLoop() {
	for {
		select {
		case <-s.stopCh:
			return
		case of := <-s.out:
			if !of.sess.revoked.Load() {
				_ = of.sess.respWriter.WriteDeadline(of.frame, time.Now().Add(replyCreditWait))
			}
		}
	}
}

func (s *Server) reply(sess *session, status wire.Status, ctl *wire.ResponseControl, sealedPayload []byte) {
	var sealed []byte
	if ctl != nil {
		pt, err := ctl.Encode()
		if err != nil {
			return
		}
		sealed, err = sess.aead.Seal(pt, sess.ad[:])
		if err != nil {
			return
		}
	}
	frame := (&response{status: status, sealedControl: sealed, sealedPayload: sealedPayload}).encode(nil)
	select {
	case s.out <- outFrame{sess: sess, frame: frame}:
	case <-s.stopCh:
	}
}

// handle is the conventional server-encryption data path: the entire
// request — control AND payload — is copied into and processed inside the
// enclave.
func (s *Server) handle(sess *session, msg []byte) {
	req, err := decodeRequest(msg)
	if err != nil {
		s.reply(sess, wire.StatusBadRequest, nil, nil)
		return
	}
	// Full request copy into the enclave (the copy Precursor avoids).
	s.copyBytes.Add(uint64(len(msg)))

	pt, err := sess.aead.Open(req.sealedControl, sess.ad[:])
	if err != nil {
		s.authFailures.Add(1)
		s.reply(sess, wire.StatusAuthFailed, nil, nil)
		return
	}
	ctl, err := wire.DecodeRequestControl(pt)
	if err != nil || ctl.Op != req.op {
		s.reply(sess, wire.StatusBadRequest, nil, nil)
		return
	}
	if ctl.Oid <= sess.lastOid {
		s.replays.Add(1)
		s.reply(sess, wire.StatusReplay,
			&wire.ResponseControl{Oid: ctl.Oid, Flags: wire.FlagReplay}, nil)
		return
	}
	sess.lastOid = ctl.Oid

	switch ctl.Op {
	case wire.OpPut:
		s.handlePut(sess, req, ctl)
	case wire.OpGet:
		s.handleGet(sess, ctl)
	case wire.OpDelete:
		s.handleDelete(sess, ctl)
	}
}

func (s *Server) handlePut(sess *session, req *request, ctl *wire.RequestControl) {
	s.puts.Add(1)
	// Transport decryption of the full payload, inside the enclave.
	value, err := sess.aead.Open(req.sealedPayload, sess.ad[:])
	if err != nil {
		s.authFailures.Add(1)
		s.reply(sess, wire.StatusAuthFailed, nil, nil)
		return
	}
	s.cryptoBytes.Add(uint64(len(req.sealedPayload)))
	// Re-encryption under the storage key before leaving the enclave.
	blob, err := s.storage.Seal(value, ctl.Key)
	if err != nil {
		s.reply(sess, wire.StatusServerError, nil, nil)
		return
	}
	s.cryptoBytes.Add(uint64(len(blob)))
	s.copyBytes.Add(uint64(len(blob)))

	ref, err := s.pool.Alloc(len(blob))
	if err != nil {
		s.reply(sess, wire.StatusServerError, nil, nil)
		return
	}
	if err := s.pool.Write(ref, blob); err != nil {
		s.reply(sess, wire.StatusServerError, nil, nil)
		return
	}
	old, existed := s.table.Swap(string(ctl.Key), &entry{ref: ref, owner: sess.id})
	if existed {
		s.pool.Free(old.ref)
	}
	s.reply(sess, wire.StatusOK, &wire.ResponseControl{Oid: ctl.Oid}, nil)
}

func (s *Server) handleGet(sess *session, ctl *wire.RequestControl) {
	s.gets.Add(1)
	e, ok := s.table.Get(string(ctl.Key))
	if !ok {
		s.reply(sess, wire.StatusNotFound,
			&wire.ResponseControl{Oid: ctl.Oid, Flags: wire.FlagNotFound}, nil)
		return
	}
	blob, err := s.pool.Read(e.ref)
	if err != nil {
		s.reply(sess, wire.StatusServerError, nil, nil)
		return
	}
	// Copy into the enclave, decrypt with the storage key, verify, then
	// re-encrypt for transport: two full crypto passes per get.
	s.copyBytes.Add(uint64(len(blob)))
	value, err := s.storage.Open(blob, ctl.Key)
	if err != nil {
		s.reply(sess, wire.StatusServerError, nil, nil)
		return
	}
	s.cryptoBytes.Add(uint64(len(blob)))
	sealed, err := sess.aead.Seal(value, sess.ad[:])
	if err != nil {
		s.reply(sess, wire.StatusServerError, nil, nil)
		return
	}
	s.cryptoBytes.Add(uint64(len(sealed)))
	s.copyBytes.Add(uint64(len(sealed)))
	s.reply(sess, wire.StatusOK, &wire.ResponseControl{Oid: ctl.Oid}, sealed)
}

func (s *Server) handleDelete(sess *session, ctl *wire.RequestControl) {
	s.deletes.Add(1)
	key := string(ctl.Key)
	e, ok := s.table.Get(key)
	if !ok {
		s.reply(sess, wire.StatusNotFound,
			&wire.ResponseControl{Oid: ctl.Oid, Flags: wire.FlagNotFound}, nil)
		return
	}
	s.table.Delete(key)
	s.pool.Free(e.ref)
	s.reply(sess, wire.StatusOK, &wire.ResponseControl{Oid: ctl.Oid}, nil)
}

// Stats returns a snapshot of server activity.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Puts:               s.puts.Load(),
		Gets:               s.gets.Load(),
		Deletes:            s.deletes.Load(),
		Replays:            s.replays.Load(),
		AuthFailures:       s.authFailures.Load(),
		EnclaveCryptoBytes: s.cryptoBytes.Load(),
		EnclaveCopyBytes:   s.copyBytes.Load(),
		Entries:            s.table.Len(),
		Enclave:            s.enclave.Stats(),
	}
}

// Close stops the server and destroys its enclave.
func (s *Server) Close() {
	s.mu.Lock()
	select {
	case <-s.stopCh:
		s.mu.Unlock()
		return
	default:
	}
	close(s.stopCh)
	s.mu.Unlock()
	s.wg.Wait()
	s.enclave.Destroy()
}
