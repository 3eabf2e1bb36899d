package shieldstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"precursor/internal/cryptox"
	"precursor/internal/sgx"
	"precursor/internal/wire"
)

// ServerConfig configures a ShieldStore server.
type ServerConfig struct {
	Platform *sgx.Platform
	Image    []byte
	// Buckets is the statically allocated bucket count (default 2^21,
	// reproducing the paper's ≈68 MiB initial enclave working set). Tests
	// use small values.
	Buckets int
	// CacheBucketHashes keeps every bucket hash inside the enclave
	// (default). Disabling it shrinks the EPC footprint by groupSize× at
	// the cost of re-verifying a whole bucket group per operation.
	CacheBucketHashes bool
	// ImagePages is the static enclave footprint beyond the hash cache.
	ImagePages int
}

func (c *ServerConfig) withDefaults() ServerConfig {
	out := *c
	if out.Buckets <= 0 {
		out.Buckets = DefaultBuckets
	}
	if out.ImagePages <= 0 {
		out.ImagePages = 1008 // ≈4 MiB of code + static data
	}
	if len(out.Image) == 0 {
		out.Image = []byte("shieldstore-enclave-v1")
	}
	return out
}

// storedEntry is one encrypted key-value record in untrusted memory: the
// sealed blob and its MAC (the Merkle leaf).
type storedEntry struct {
	sealed []byte
	mac    [16]byte
}

// bucketState is one hash bucket: entries plus — when the in-enclave
// cache is off — an untrusted copy of the bucket hash.
type bucketState struct {
	mu      sync.Mutex
	entries []storedEntry
}

// session is a connected client's transport-encryption state.
type session struct {
	id   uint32
	ad   [4]byte
	aead *cryptox.AEAD
}

// ServerStats is a snapshot of ShieldStore server activity.
type ServerStats struct {
	Puts, Gets, Deletes uint64
	AuthFailures        uint64
	IntegrityFailures   uint64
	// EnclaveCryptoBytes counts all bytes the enclave en/decrypted:
	// transport, storage re-encryption, and bucket-scan decryptions.
	EnclaveCryptoBytes uint64
	// BucketEntriesScanned counts entries decrypted during bucket scans.
	BucketEntriesScanned uint64
	// HashBytes counts bytes run through SHA-256 for Merkle maintenance.
	HashBytes uint64
	Entries   int
	Enclave   sgx.Stats
}

// Server is a ShieldStore instance.
type Server struct {
	cfg     ServerConfig
	enclave *sgx.Enclave
	storage *cryptox.AEAD
	mac     *cryptox.CMAC

	buckets []bucketState

	// In-enclave integrity state. With the cache on, hashRegion holds all
	// bucket hashes; off, it holds only group hashes while untrustedHashes
	// holds attacker-accessible bucket hashes.
	hashRegion      *sgx.Region
	untrustedHashes [][HashSize]byte

	mu       sync.Mutex
	sessions map[uint32]*session
	nextID   uint32
	closed   bool

	puts, gets, deletes atomic.Uint64
	authFailures        atomic.Uint64
	integrityFailures   atomic.Uint64
	cryptoBytes         atomic.Uint64
	scanned             atomic.Uint64
	hashBytes           atomic.Uint64
	entries             atomic.Int64
}

// NewServer creates a ShieldStore server. All integrity structures are
// allocated statically up front — the design choice Table 1 measures.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("shieldstore: ServerConfig.Platform is required")
	}
	c := cfg.withDefaults()
	enclave := c.Platform.CreateEnclave(c.Image, c.ImagePages)

	storageKey, err := cryptox.RandomBytes(cryptox.SessionKeySize)
	if err != nil {
		return nil, err
	}
	storage, err := cryptox.NewAEAD(storageKey)
	if err != nil {
		return nil, err
	}
	macKey, err := cryptox.RandomBytes(16)
	if err != nil {
		return nil, err
	}
	mac, err := cryptox.NewCMAC(macKey)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      c,
		enclave:  enclave,
		storage:  storage,
		mac:      mac,
		buckets:  make([]bucketState, c.Buckets),
		sessions: make(map[uint32]*session),
	}
	err = enclave.Ecall("init_store", func() error {
		if c.CacheBucketHashes {
			// The full statically sized in-enclave hash array.
			s.hashRegion, err = enclave.Alloc(c.Buckets * HashSize)
			return err
		}
		groups := (c.Buckets + groupSize - 1) / groupSize
		s.hashRegion, err = enclave.Alloc(groups * HashSize)
		if err != nil {
			return err
		}
		s.untrustedHashes = make([][HashSize]byte, c.Buckets)
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.initHashes()
	return s, nil
}

// initHashes seeds bucket/group hashes for the all-empty store.
func (s *Server) initHashes() {
	empty := bucketHashFromMACs(nil)
	if s.cfg.CacheBucketHashes {
		for b := 0; b < s.cfg.Buckets; b++ {
			copy(s.hashRegion.Data[b*HashSize:], empty[:])
		}
		return
	}
	for b := range s.untrustedHashes {
		s.untrustedHashes[b] = empty
	}
	groups := (s.cfg.Buckets + groupSize - 1) / groupSize
	for g := 0; g < groups; g++ {
		gh := groupHashFromBuckets(s.groupSlice(g))
		copy(s.hashRegion.Data[g*HashSize:], gh[:])
	}
}

func (s *Server) groupSlice(g int) [][HashSize]byte {
	lo := g * groupSize
	hi := lo + groupSize
	if hi > len(s.untrustedHashes) {
		hi = len(s.untrustedHashes)
	}
	return s.untrustedHashes[lo:hi]
}

// Measurement returns the enclave identity.
func (s *Server) Measurement() sgx.Measurement { return s.enclave.Measurement() }

// Enclave exposes the server's enclave for tooling (Table 1's working set).
func (s *Server) Enclave() *sgx.Enclave { return s.enclave }

// Serve handles one client connection until it closes. Call it in its own
// goroutine per accepted transport.
func (s *Server) Serve(tr Transport) error {
	sess, err := s.handshake(tr)
	if err != nil {
		return err
	}
	for {
		msg, err := tr.Recv()
		if err != nil {
			return nil // connection closed
		}
		resp := s.handle(sess, msg)
		if err := tr.Send(resp); err != nil {
			return nil
		}
	}
}

// handshake mirrors Precursor's attested session establishment (both
// systems use SGX attestation; they differ in the data path).
func (s *Server) handshake(tr Transport) (*session, error) {
	raw, err := tr.Recv()
	if err != nil {
		return nil, err
	}
	var hello struct {
		AttestPub   []byte `json:"attestPub"`
		AttestNonce []byte `json:"attestNonce"`
	}
	if err := json.Unmarshal(raw, &hello); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	var (
		sh  sgx.ServerHello
		key []byte
	)
	err = s.enclave.Ecall("add_client", func() error {
		var err error
		sh, key, err = s.enclave.RespondHandshake(sgx.ClientHello{
			PublicKey: hello.AttestPub, Nonce: hello.AttestNonce,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	aead, err := cryptox.NewAEAD(key)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.nextID++
	sess := &session{id: s.nextID, aead: aead}
	binary.LittleEndian.PutUint32(sess.ad[:], sess.id)
	s.sessions[sess.id] = sess
	s.mu.Unlock()

	welcome, err := json.Marshal(struct {
		AttestPub        []byte `json:"attestPub"`
		QuoteMeasurement []byte `json:"quoteMeasurement"`
		QuoteReportData  []byte `json:"quoteReportData"`
		QuoteSignature   []byte `json:"quoteSignature"`
		ClientID         uint32 `json:"clientID"`
	}{sh.PublicKey, sh.Quote.Measurement[:], sh.Quote.ReportData, sh.Quote.Signature, sess.id})
	if err != nil {
		return nil, err
	}
	if err := tr.Send(welcome); err != nil {
		return nil, err
	}
	return sess, nil
}

// handle processes one sealed request: the whole message is copied into
// the enclave and decrypted there (the server encryption scheme, §2.4).
func (s *Server) handle(sess *session, msg []byte) []byte {
	// Per-request ecall: ShieldStore's socket loop enters the enclave for
	// every request (no Precursor-style in-enclave polling).
	var out []byte
	_ = s.enclave.Ecall("handle_request", func() error {
		out = s.handleInEnclave(sess, msg)
		return nil
	})
	return out
}

func (s *Server) handleInEnclave(sess *session, msg []byte) []byte {
	pt, err := sess.aead.Open(msg, sess.ad[:])
	if err != nil {
		s.authFailures.Add(1)
		return s.seal(sess, wire.StatusAuthFailed, nil)
	}
	s.cryptoBytes.Add(uint64(len(msg)))
	if len(pt) < 3 {
		return s.seal(sess, wire.StatusBadRequest, nil)
	}
	op := wire.Opcode(pt[0])
	keyLen := int(binary.LittleEndian.Uint16(pt[1:3]))
	if len(pt) < 3+keyLen || keyLen == 0 || keyLen > wire.MaxKeyLen {
		return s.seal(sess, wire.StatusBadRequest, nil)
	}
	key := pt[3 : 3+keyLen]
	value := pt[3+keyLen:]

	switch op {
	case wire.OpPut:
		return s.put(sess, key, value)
	case wire.OpGet:
		return s.get(sess, key)
	case wire.OpDelete:
		return s.del(sess, key)
	default:
		return s.seal(sess, wire.StatusBadRequest, nil)
	}
}

// seal builds a transport-encrypted response.
func (s *Server) seal(sess *session, status wire.Status, value []byte) []byte {
	body := make([]byte, 1+len(value))
	body[0] = byte(status)
	copy(body[1:], value)
	sealed, err := sess.aead.Seal(body, sess.ad[:])
	if err != nil {
		return nil
	}
	s.cryptoBytes.Add(uint64(len(sealed)))
	return sealed
}

func (s *Server) bucketFor(key []byte) (int, *bucketState) {
	h := fnv64(key)
	idx := int(h % uint64(s.cfg.Buckets))
	return idx, &s.buckets[idx]
}

// verifyBucket recomputes the bucket hash from the untrusted MAC list and
// compares it with the trusted copy, touching the enclave pages involved.
// The bucket lock must be held.
func (s *Server) verifyBucket(idx int, b *bucketState) bool {
	macs := make([][16]byte, len(b.entries))
	for i := range b.entries {
		macs[i] = b.entries[i].mac
	}
	s.hashBytes.Add(uint64(len(macs) * 16))
	got := bucketHashFromMACs(macs)

	if s.cfg.CacheBucketHashes {
		s.hashRegion.Touch(idx*HashSize, HashSize)
		var want [HashSize]byte
		copy(want[:], s.hashRegion.Data[idx*HashSize:])
		return got == want
	}
	// Cache off: check the untrusted bucket hash against our recomputation
	// and authenticate the whole group against the in-enclave group hash.
	if s.untrustedHashes[idx] != got {
		return false
	}
	g := idx / groupSize
	s.hashBytes.Add(uint64(groupSize * HashSize))
	gh := groupHashFromBuckets(s.groupSlice(g))
	s.hashRegion.Touch(g*HashSize, HashSize)
	var want [HashSize]byte
	copy(want[:], s.hashRegion.Data[g*HashSize:])
	return gh == want
}

// updateBucketHash recomputes and stores the bucket (and group) hash after
// a mutation. The bucket lock must be held.
func (s *Server) updateBucketHash(idx int, b *bucketState) {
	macs := make([][16]byte, len(b.entries))
	for i := range b.entries {
		macs[i] = b.entries[i].mac
	}
	s.hashBytes.Add(uint64(len(macs) * 16))
	h := bucketHashFromMACs(macs)
	if s.cfg.CacheBucketHashes {
		s.hashRegion.Touch(idx*HashSize, HashSize)
		copy(s.hashRegion.Data[idx*HashSize:], h[:])
		return
	}
	s.untrustedHashes[idx] = h
	g := idx / groupSize
	s.hashBytes.Add(uint64(groupSize * HashSize))
	gh := groupHashFromBuckets(s.groupSlice(g))
	s.hashRegion.Touch(g*HashSize, HashSize)
	copy(s.hashRegion.Data[g*HashSize:], gh[:])
}

// findInBucket decrypts entries in order until the key matches — the
// bucket-scan cost of §5.2. The bucket lock must be held.
func (s *Server) findInBucket(b *bucketState, key []byte) (i int, value []byte, found bool) {
	for i := range b.entries {
		e := &b.entries[i]
		s.scanned.Add(1)
		s.cryptoBytes.Add(uint64(len(e.sealed)))
		pt, err := s.storage.Open(e.sealed, nil)
		if err != nil {
			continue // corrupt entry; integrity verdict comes from Merkle
		}
		if len(pt) < 2 {
			continue
		}
		kl := int(binary.LittleEndian.Uint16(pt[:2]))
		if len(pt) < 2+kl {
			continue
		}
		if string(pt[2:2+kl]) == string(key) {
			return i, append([]byte(nil), pt[2+kl:]...), true
		}
	}
	return 0, nil, false
}

func (s *Server) put(sess *session, key, value []byte) []byte {
	s.puts.Add(1)
	idx, b := s.bucketFor(key)
	b.mu.Lock()
	defer b.mu.Unlock()

	if !s.verifyBucket(idx, b) {
		s.integrityFailures.Add(1)
		return s.seal(sess, wire.StatusServerError, nil)
	}
	// Re-encrypt under the storage key (server encryption scheme).
	pt := make([]byte, 2+len(key)+len(value))
	binary.LittleEndian.PutUint16(pt[:2], uint16(len(key)))
	copy(pt[2:], key)
	copy(pt[2+len(key):], value)
	sealed, err := s.storage.Seal(pt, nil)
	if err != nil {
		return s.seal(sess, wire.StatusServerError, nil)
	}
	s.cryptoBytes.Add(uint64(len(sealed)))
	// s.mac is keyed once and never written to: the key does not change, and
	// each put MACs on its own copy of the running state.
	mac := *s.mac
	_, _ = mac.Write(sealed) // never fails
	entry := storedEntry{sealed: sealed}
	mac.Sum(entry.mac[:0])

	if i, _, found := s.findInBucket(b, key); found {
		b.entries[i] = entry
	} else {
		b.entries = append(b.entries, entry)
		s.entries.Add(1)
	}
	s.updateBucketHash(idx, b)
	return s.seal(sess, wire.StatusOK, nil)
}

func (s *Server) get(sess *session, key []byte) []byte {
	s.gets.Add(1)
	idx, b := s.bucketFor(key)
	b.mu.Lock()
	defer b.mu.Unlock()

	if !s.verifyBucket(idx, b) {
		s.integrityFailures.Add(1)
		return s.seal(sess, wire.StatusServerError, nil)
	}
	_, value, found := s.findInBucket(b, key)
	if !found {
		return s.seal(sess, wire.StatusNotFound, nil)
	}
	return s.seal(sess, wire.StatusOK, value)
}

func (s *Server) del(sess *session, key []byte) []byte {
	s.deletes.Add(1)
	idx, b := s.bucketFor(key)
	b.mu.Lock()
	defer b.mu.Unlock()

	if !s.verifyBucket(idx, b) {
		s.integrityFailures.Add(1)
		return s.seal(sess, wire.StatusServerError, nil)
	}
	i, _, found := s.findInBucket(b, key)
	if !found {
		return s.seal(sess, wire.StatusNotFound, nil)
	}
	b.entries = append(b.entries[:i], b.entries[i+1:]...)
	s.entries.Add(-1)
	s.updateBucketHash(idx, b)
	return s.seal(sess, wire.StatusOK, nil)
}

// CorruptEntry flips a bit in a stored (untrusted) entry for a random
// occupied bucket — a test hook standing in for a memory adversary. It
// returns false if the store is empty.
func (s *Server) CorruptEntry() bool {
	for i := range s.buckets {
		b := &s.buckets[i]
		b.mu.Lock()
		if len(b.entries) > 0 {
			b.entries[0].sealed[0] ^= 0xff
			b.mu.Unlock()
			return true
		}
		b.mu.Unlock()
	}
	return false
}

// CorruptMAC flips a bit in a stored entry's MAC (Merkle leaf).
func (s *Server) CorruptMAC() bool {
	for i := range s.buckets {
		b := &s.buckets[i]
		b.mu.Lock()
		if len(b.entries) > 0 {
			b.entries[0].mac[0] ^= 0xff
			b.mu.Unlock()
			return true
		}
		b.mu.Unlock()
	}
	return false
}

// Stats returns a snapshot of server activity.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Puts:                 s.puts.Load(),
		Gets:                 s.gets.Load(),
		Deletes:              s.deletes.Load(),
		AuthFailures:         s.authFailures.Load(),
		IntegrityFailures:    s.integrityFailures.Load(),
		EnclaveCryptoBytes:   s.cryptoBytes.Load(),
		BucketEntriesScanned: s.scanned.Load(),
		HashBytes:            s.hashBytes.Load(),
		Entries:              int(s.entries.Load()),
		Enclave:              s.enclave.Stats(),
	}
}

// Close destroys the enclave.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.enclave.Destroy()
	}
}

// fnv64 hashes a key to its bucket.
func fnv64(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range key {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
